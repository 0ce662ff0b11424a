// Package core ties the inference algorithms of the paper into one
// engine: given positive example strings (or whole XML documents), it
// derives concise deterministic regular expressions — SOREs via iDTD,
// CHAREs via CRX — or runs one of the baselines (XTRACT, the Trang-like
// pipeline, classical state elimination) for comparison, and assembles
// complete DTDs. Every engine is a registered Learner consuming the
// counted, interned sample representation; names, parsing and CLI usage
// text all derive from the registry.
//
// Each operation has one verb: Ingest turns documents into an
// extraction, InferDTDFromExtractionContext infers an extraction's DTD
// (memoized per element, so a fresh extraction is simply a cold pass),
// and InferSampleExpr runs one engine on one sample.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"dtdinfer/internal/crx"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/numpred"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/stateelim"
	"dtdinfer/internal/tranglike"
	"dtdinfer/internal/xtract"
)

// Algorithm selects the inference engine for content models.
type Algorithm string

const (
	// IDTD is the paper's SORE inference: 2T-INF + rewrite + repair rules.
	IDTD Algorithm = "idtd"
	// CRX is the paper's CHARE inference, strongest on sparse data.
	CRX Algorithm = "crx"
	// RewriteOnly is rewrite without repair rules: fails on
	// non-representative samples (used to reproduce Figure 4).
	RewriteOnly Algorithm = "rewrite"
	// XTRACT is the reconstruction of the Garofalakis et al. system.
	XTRACT Algorithm = "xtract"
	// TrangLike is the reconstruction of Trang's strategy.
	TrangLike Algorithm = "trang"
	// StateElim is classical state elimination over the 2T-INF automaton.
	StateElim Algorithm = "stateelim"
)

// Budget caps the resources one element's inference may consume. The zero
// value applies no caps. Budgets are enforced cooperatively: the deadline
// becomes a per-element context timeout, and the structural caps are
// carried in the context and checked by every engine at its blow-up
// points (automaton size before the expensive phase, expression size after
// it).
type Budget struct {
	// Deadline is the wall-clock cap per element (0 = none).
	Deadline time.Duration
	// MaxSOAStates caps the automaton alphabet size an engine may process
	// (0 = none). Engines whose cost is superlinear in states — state
	// elimination above all — fail fast instead of blowing up.
	MaxSOAStates int
	// MaxExprSize caps the token count of an accepted expression (0 =
	// none), rejecting page-filling outputs a human would never read.
	MaxExprSize int
}

// DegradeMode selects what happens when an element's configured engine
// fails, exceeds its budget, or panics.
type DegradeMode int

const (
	// DegradeFail propagates the failure, aborting the whole inference —
	// the historical behaviour and the zero value, so existing library
	// callers are unaffected.
	DegradeFail DegradeMode = iota
	// DegradeLadder walks the degradation ladder instead: the configured
	// engine, then CRX (cheap, linear, cannot blow up), then the universal
	// content model (a1|...|an)* over the element's observed children. The
	// accepted rung is recorded in the element's ElementOutcome.
	DegradeLadder
)

func (m DegradeMode) String() string {
	switch m {
	case DegradeFail:
		return "fail"
	case DegradeLadder:
		return "ladder"
	}
	return fmt.Sprintf("DegradeMode(%d)", int(m))
}

// Options tune the engines.
type Options struct {
	// IDTD options (fuzziness k, noise threshold, ...).
	IDTD idtd.Options
	// XTRACT options (string cap, block length).
	XTRACT xtract.Options
	// NumericPredicates enables the Section 9 post-processing that refines
	// r+ factors to r{m}/r{m,} bounds from the sample.
	NumericPredicates bool
	// Parallelism is the number of worker goroutines used for document
	// ingestion (XML decoding). 0 selects GOMAXPROCS, 1 forces sequential
	// ingestion. Results are byte-identical at every setting; see
	// dtd.Extraction.AddDocsParallelContext.
	Parallelism int
	// Budget caps each element's inference (zero value = uncapped).
	Budget Budget
	// Degrade selects the reaction to a failing or over-budget engine.
	Degrade DegradeMode
}

// Learner is one registered inference engine: the name the tools address
// it by, a one-line description for usage text, and the inference function
// over the counted, interned sample representation.
type Learner struct {
	// Algo is the registry key, as used by ParseAlgorithm and the CLIs.
	Algo Algorithm
	// Doc is a one-line description shown in command-line usage.
	Doc string
	// Infer derives a content-model expression from a counted sample. The
	// context carries cancellation and the resource budget; engines check
	// it cooperatively at their blow-up points.
	Infer func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error)
}

// registry holds the learners in registration order — the order names
// appear in usage text and error messages.
var registry []Learner

// byAlgo indexes the registry for ParseAlgorithm and dispatch.
var byAlgo = map[Algorithm]*Learner{}

// Register adds a learner to the registry. It panics on a duplicate or
// empty name; registration happens at init time, so a collision is a
// programming error, not a runtime condition.
func Register(l Learner) {
	if l.Algo == "" || l.Infer == nil {
		panic("core: Register requires a name and an Infer func")
	}
	if _, dup := byAlgo[l.Algo]; dup {
		panic(fmt.Sprintf("core: duplicate learner %q", l.Algo))
	}
	registry = append(registry, l)
	byAlgo[l.Algo] = &registry[len(registry)-1]
}

// Learners returns the registered learners in registration order.
func Learners() []Learner {
	out := make([]Learner, len(registry))
	copy(out, registry)
	return out
}

// AlgorithmNames returns the registered algorithm names in registration
// order — the single source the CLIs derive their -algo usage from.
func AlgorithmNames() []string {
	names := make([]string, len(registry))
	for i, l := range registry {
		names[i] = string(l.Algo)
	}
	return names
}

// AlgorithmList renders the registered names as "a, b, ... or z" for
// error and usage text.
func AlgorithmList() string {
	names := AlgorithmNames()
	if len(names) == 0 {
		return ""
	}
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ParseAlgorithm converts a name (as used by the command-line tools) into
// an Algorithm. The set of accepted names — and the error text listing
// them — comes from the learner registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	if _, ok := byAlgo[Algorithm(name)]; ok {
		return Algorithm(name), nil
	}
	return "", fmt.Errorf("core: unknown algorithm %q (want %s)", name, AlgorithmList())
}

func init() {
	Register(Learner{
		Algo: IDTD,
		Doc:  "SORE inference: 2T-INF + rewrite + repair rules (the paper's iDTD)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			res, err := idtd.InferSampleContext(ctx, s, &opts.IDTD)
			if err != nil {
				return nil, err
			}
			return res.Expr, nil
		},
	})
	Register(Learner{
		Algo: CRX,
		Doc:  "CHARE inference, strongest on sparse data (the paper's CRX)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			res, err := crx.InferSampleContext(ctx, s)
			if err != nil {
				return nil, err
			}
			return res.Expr, nil
		},
	})
	Register(Learner{
		Algo: RewriteOnly,
		Doc:  "rewrite without repair rules; fails on non-representative samples (Figure 4)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return gfa.InferSampleContext(ctx, s)
		},
	})
	Register(Learner{
		Algo: XTRACT,
		Doc:  "reconstruction of the Garofalakis et al. XTRACT system",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return xtract.InferSampleContext(ctx, s, &opts.XTRACT)
		},
	})
	Register(Learner{
		Algo: TrangLike,
		Doc:  "reconstruction of Trang's inference strategy",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return tranglike.InferSampleContext(ctx, s)
		},
	})
	Register(Learner{
		Algo: StateElim,
		Doc:  "classical state elimination over the 2T-INF automaton (negative baseline)",
		Infer: func(ctx context.Context, s *sample.Set, opts *Options) (*regex.Expr, error) {
			return stateelim.InferSampleContext(ctx, s)
		},
	})
}

// InferSampleExpr derives a content-model expression from a counted,
// interned sample with the chosen algorithm. This is the engine hot path:
// the registered learner consumes interned IDs directly, and the optional
// numeric-predicate refinement scans unique sequences only. It runs the
// single chosen engine — no degradation ladder — so experiment harnesses
// measuring one algorithm observe that algorithm's own failures.
func InferSampleExpr(s *sample.Set, algo Algorithm, opts *Options) (*regex.Expr, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	l, ok := byAlgo[algo]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (want %s)", algo, AlgorithmList())
	}
	e, err := l.Infer(context.Background(), s, &o)
	if err != nil {
		return nil, err
	}
	if o.NumericPredicates {
		e = numpred.RefineSample(e, s)
	}
	return e, nil
}

// InferExpr derives a content-model expression from positive example
// strings with the chosen algorithm. The strings are folded into the
// counted sample representation first, so duplicates cost a count bump
// rather than repeated work in the engine.
func InferExpr(strs [][]string, algo Algorithm, opts *Options) (*regex.Expr, error) {
	return InferSampleExpr(sample.FromStrings(strs), algo, opts)
}

// Inferrer adapts an algorithm to the dtd.InferFunc shape (verbatim
// strings), used by consumers that assemble their own string samples.
func Inferrer(algo Algorithm, opts *Options) dtd.InferFunc {
	return func(sample [][]string) (*regex.Expr, error) {
		return InferExpr(sample, algo, opts)
	}
}

// Ingest is the single ingestion pipeline behind every document-level
// entry point: documents are ingested into a fresh extraction under the
// resource caps of ingest (nil = unlimited), fault-isolated per document
// under the chosen policy, sharded across workers according to
// opts.Parallelism, and cancellable through the context. Under
// SkipAndRecord a malformed document is recorded in the report and
// skipped rather than aborting the batch. The report is never nil.
func Ingest(ctx context.Context, docs []io.Reader, opts *Options,
	ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.Extraction, *dtd.IngestReport, error) {
	workers := 0
	if opts != nil {
		workers = opts.Parallelism
	}
	x := dtd.NewExtraction()
	report, err := x.AddDocsParallelContext(ctx, dtd.LabelDocs(docs), workers, ingest, policy)
	if err != nil {
		return nil, report, fmt.Errorf("core: %w", err)
	}
	return x, report, nil
}

// InferDTDFromExtraction infers a DTD from already-extracted sequences.
func InferDTDFromExtraction(x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, error) {
	d, _, err := InferDTDFromExtractionContext(context.Background(), x, algo, opts)
	return d, err
}

// InferDTDFromExtractionStats additionally reports per-element inference
// timings, degradation outcomes and cache counters.
func InferDTDFromExtractionStats(x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, *dtd.InferStats, error) {
	return InferDTDFromExtractionContext(context.Background(), x, algo, opts)
}

// InferDTDFromExtractionContext is the one extraction-level inference
// verb: cancellation propagates into every engine's hot loop, and
// opts.Budget / opts.Degrade govern per-element budgets and the
// degradation ladder. Inference is memoized per element on the
// extraction: repeated calls with the same algorithm and options replay
// cached content models for every element whose sample has not changed
// since the previous call (validated by content fingerprint, so the
// result is byte-identical to a cold run), and the returned InferStats
// carries the hit/miss/recompute counters. A call with different
// algorithm or options keys its own cache entries and never aliases
// another configuration's. Calls on one extraction are serialized.
func InferDTDFromExtractionContext(ctx context.Context, x *dtd.Extraction, algo Algorithm, opts *Options) (*dtd.DTD, *dtd.InferStats, error) {
	return x.InferDTD(ctx, cacheConfig(algo, opts), ElementInferrer(algo, opts))
}
