package dtd

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dtdinfer/internal/regex"
)

// Incremental inference: repeated InferDTD passes over a growing
// extraction skip the engines for every element whose sample has not
// changed. Eligibility is decided per element by comparing the sample's
// content fingerprint (see sample.Multiset) against the fingerprint the
// cached model was computed from; the dirty bits maintained by the
// ingestion paths are the cheap observability layer on top (how many
// elements changed since the last pass), not the correctness mechanism.
// Cached models are returned pointer-identical, so a warm pass renders
// byte-identically to the cold pass that populated the cache — and a
// pass over a fresh extraction is simply a cold pass.

// CacheConfig identifies one engine configuration for the model cache.
// Two inference passes share cached models only when their Keys are
// equal, so the key must encode everything that can change an engine's
// output for the same sample: algorithm, engine options, budget,
// degradation mode. Counted selects the count-sensitive fingerprint for
// engines whose output depends on sequence multiplicities (noise
// thresholds, numeric predicates, support-weighted factoring); shape-only
// engines validate against the shape fingerprint and so stay warm across
// merges that only bump multiplicities of already-seen shapes.
type CacheConfig struct {
	Key     string
	Counted bool
}

// modelKey addresses one cached content model.
type modelKey struct {
	name   string
	config string
}

// modelCacheEntry is one memoized inference result: the fingerprint of
// the sample it was computed from, the accepted model, and the outcome
// that produced it (nil when the inferrer reported none).
type modelCacheEntry struct {
	fp      uint64
	model   *regex.Expr
	outcome *ElementOutcome
}

// InvalidateCache drops every memoized content model, forcing the next
// inference pass to run cold. Benchmarks use it to measure cold passes
// on a warm extraction; library callers normally never need it —
// fingerprint validation already invalidates per element.
func (x *Extraction) InvalidateCache() { x.cache = nil }

// InferDTD builds a DTD from the accumulated sequences. Elements seen
// with only text become (#PCDATA), with both text and children mixed
// content, and with neither EMPTY; every element with children content
// gets its model from infer, memoized per element in the extraction's
// model cache under (element, cfg.Key). A cache entry whose stored
// fingerprint matches the sample's current one is replayed without
// entering the engine or the degradation ladder; a mismatch recomputes
// and overwrites; an absent entry computes and fills. Everything else is
// served inline, and only the elements that must run an engine go to a
// bounded worker pool: a warm pass over an unchanged corpus spawns no
// goroutines at all, and the result is deterministic regardless of
// scheduling. <!ATTLIST> inference replays likewise under the global
// attribute fingerprint.
//
// The context cancels the pool cooperatively — workers stop picking up
// elements and the error returned is ctx.Err() — and is passed to every
// element inferrer, which layers per-element deadlines and budgets on
// top of it. The stats are non-nil whenever elements were observed,
// even on error. On a fully successful pass the dirty bits are cleared;
// a failed or cancelled pass leaves them (and the models it did compute)
// in place, so the next pass resumes incrementally. Passes on one
// extraction are serialized; ingestion must not run concurrently with
// one.
func (x *Extraction) InferDTD(ctx context.Context, cfg CacheConfig, infer InferElementFunc) (*DTD, *InferStats, error) {
	x.inferMu.Lock()
	defer x.inferMu.Unlock()
	start := time.Now()
	names := make([]string, 0, len(x.Sequences))
	for n := range x.Sequences {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("dtd: no elements observed")
	}
	if x.cache == nil {
		x.cache = map[modelKey]*modelCacheEntry{}
	}
	stats := &InferStats{Dirty: len(x.dirty)}
	elements := make([]*Element, len(names))
	outcomes := make([]*ElementOutcome, len(names))
	errs := make([]error, len(names))
	fps := make([]uint64, len(names))
	timings := make([]ElementTiming, len(names))
	pending := make([]int, 0, len(names))
	for i, name := range names {
		t0 := time.Now()
		elem, outcome, fp, served := x.serveCached(name, cfg, stats)
		if !served {
			fps[i] = fp
			pending = append(pending, i)
			continue
		}
		elements[i], outcomes[i] = elem, outcome
		timings[i] = ElementTiming{
			Name:      name,
			Sequences: x.Sequences[name].Total(),
			Duration:  time.Since(t0),
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, i := range pending {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			seqs := x.Sequences[name]
			model, outcome, err := infer(ctx, name, seqs)
			outcomes[i] = outcome
			if err != nil {
				errs[i] = fmt.Errorf("dtd: inferring content model of %s: %w", name, err)
			} else {
				elements[i] = &Element{Name: name, Type: Children, Model: model}
			}
			timings[i] = ElementTiming{Name: name, Sequences: seqs.Total(), Duration: time.Since(t0)}
		}(i, names[i])
	}
	wg.Wait()
	// Store every model this pass computed, even when the pass as a whole
	// fails: the fingerprint was read before the engine ran and samples
	// are not mutated during inference, so each entry describes exactly
	// the content its model came from.
	for _, i := range pending {
		if e := elements[i]; e != nil {
			x.cache[modelKey{name: names[i], config: cfg.Key}] = &modelCacheEntry{fp: fps[i], model: e.Model, outcome: outcomes[i]}
		}
	}
	stats.Wall = time.Since(start)
	stats.PerElement = timings
	for _, o := range outcomes {
		if o != nil {
			stats.Outcomes = append(stats.Outcomes, *o)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	d := New(x.Root())
	for i, e := range elements {
		if errs[i] != nil {
			return nil, stats, errs[i]
		}
		d.Declare(e)
	}
	stats.AttListReplayed = x.inferAttributesCached(d)
	clear(x.dirty)
	return d, stats, nil
}

// serveCached resolves one element without engine work when possible:
// structural declarations (EMPTY, #PCDATA, mixed — table lookups, never
// engines, never cached) and children-content elements whose cached
// model's stored fingerprint still matches the sample's. Every
// children-content element counts as exactly one hit, miss or
// recompute. served=false means the element needs an engine run under
// the returned fingerprint.
func (x *Extraction) serveCached(name string, cfg CacheConfig, stats *InferStats) (elem *Element, outcome *ElementOutcome, fp uint64, served bool) {
	seqs := x.Sequences[name]
	hasChildren := seqs.NumSymbols() > 0
	switch {
	case !hasChildren && x.HasText[name]:
		return &Element{Name: name, Type: PCData}, nil, 0, true
	case !hasChildren:
		return &Element{Name: name, Type: Empty}, nil, 0, true
	case x.HasText[name]:
		return &Element{Name: name, Type: Mixed, MixedNames: seqs.Symbols()}, nil, 0, true
	}
	fp = seqs.ShapeFingerprint()
	if cfg.Counted {
		fp = seqs.CountedFingerprint()
	}
	t0 := time.Now()
	ent, ok := x.cache[modelKey{name: name, config: cfg.Key}]
	switch {
	case !ok:
		stats.CacheMisses++
		return nil, nil, fp, false
	case ent.fp != fp:
		stats.CacheRecomputes++
		return nil, nil, fp, false
	}
	stats.CacheHits++
	if ent.outcome != nil {
		oc := *ent.outcome
		oc.FromCache = true
		oc.Elapsed = time.Since(t0)
		outcome = &oc
	}
	return &Element{Name: name, Type: Children, Model: ent.model}, outcome, fp, true
}
