package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
	"dtdinfer/internal/xmltok"
	"dtdinfer/internal/xsd"
)

// The traced run calls each layer's public functions directly, in the
// order the program composes them, on the same generated inputs: one
// operation per corpus of the workload. Spans are recorded around every
// call from this file; the program itself carries no instrumentation.

// layerCounts accumulates the counters measured at the span boundaries.
type layerCounts struct {
	bytes, tokens, docs, elements                        float64
	decode, flushWait, commit, committerIdle, flushUnits float64

	total, unique, maxAlphabet float64

	inferElements, maxElement, cacheHits, cacheMisses, degraded float64

	idtdMax, idtdAllocs, crxAllocs float64

	dtdBytes, xsdBytes float64

	validateBytes, validateDocs, validateInvalid float64

	snapshotBytes float64

	refreshHits, refreshRecomputes float64
}

// example4 is the §8.3 timing workload: example4 (61 symbols) from its
// Table 2 sample size.
type example4 struct {
	set         *smp.Set
	idtdS, crxS []float64
	idtdAllocs  float64
	crxAllocs   float64
	runs        int
}

func newExample4(seed int64) *example4 {
	row := experiments.Table2[3]
	target := regex.MustParse(row.Original)
	s := datagen.NewSampler(subSeed(seed, streamTraffic, 1))
	var strs [][]string
	if cover := datagen.EdgeCoverSample(target); len(cover) <= row.SampleSize {
		strs = datagen.RepresentativeSample(s, target, row.SampleSize)
	} else {
		strs = s.SampleN(target, row.SampleSize)
	}
	return &example4{set: smp.FromStrings(strs), runs: 3}
}

// mallocs reads the cumulative allocation count; only the traced run
// pays for it.
func mallocs(t *tracer) float64 {
	if t == nil {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// layerOp runs every layer over one corpus and checks each output.
func (r *run) layerOp(t *tracer, c *corpusInput, lc *layerCounts) error {
	ctx := context.Background()
	defer t.begin("op:" + c.name)()

	end := t.begin("xmltok")
	tok := xmltok.NewTokenizer()
	for _, d := range c.files.data {
		tok.Reset(bytes.NewReader(d))
		for {
			_, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				end()
				return fmt.Errorf("xmltok on %s: %w", c.name, err)
			}
			lc.tokens++
		}
		lc.bytes += float64(len(d))
	}
	end()

	x := dtd.NewExtraction()
	end = t.begin("ingest")
	rep, err := x.AddDocsParallelContext(ctx, c.docs(), r.nproc, &dtd.IngestOptions{}, dtd.FailFast)
	end()
	if err != nil {
		return err
	}
	lc.docs += float64(rep.Accepted)
	lc.elements += float64(rep.Elements)
	if p := rep.Pipeline; p != nil {
		lc.decode += secs(p.Decode)
		lc.flushWait += secs(p.FlushWait)
		lc.commit += secs(p.Commit)
		lc.committerIdle += secs(p.CommitterIdle)
		lc.flushUnits += float64(p.FlushUnits)
	}
	end = t.begin("ingest.w1")
	_, err = dtd.NewExtraction().AddDocsParallelContext(ctx, c.docs(), 1, &dtd.IngestOptions{}, dtd.FailFast)
	end()
	if err != nil {
		return err
	}

	end = t.begin("sample")
	var names []string
	for name, s := range x.Sequences {
		lc.total += float64(s.Total())
		lc.unique += float64(s.Unique())
		lc.maxAlphabet = max(lc.maxAlphabet, float64(s.NumSymbols()))
		if s.NumSymbols() > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	end()

	end = t.begin("infer")
	d, st, err := core.InferDTDFromExtractionStats(x, core.IDTD, inferOptions(r.nproc))
	end()
	if err != nil {
		return err
	}
	if d.String() != c.refDTD {
		r.fail(fmt.Errorf("in-process DTD of %s at %d workers differs from the sequential reference", c.name, r.nproc))
	}
	lc.inferElements += float64(len(st.PerElement))
	for _, e := range st.PerElement {
		lc.maxElement = max(lc.maxElement, secs(e.Duration))
	}
	lc.cacheHits += float64(st.CacheHits)
	lc.cacheMisses += float64(st.CacheMisses)
	for _, o := range st.Outcomes {
		if o.DegradedFrom != "" {
			lc.degraded++
		}
	}

	for _, algo := range []core.Algorithm{core.IDTD, core.CRX} {
		a0 := mallocs(t)
		end = t.begin(string(algo))
		for _, name := range names {
			start := time.Now()
			if _, err := core.InferSampleExpr(x.Sequences[name], algo, nil); err != nil {
				end()
				return fmt.Errorf("%s on %s/%s: %w", algo, c.name, name, err)
			}
			if algo == core.IDTD {
				lc.idtdMax = max(lc.idtdMax, time.Since(start).Seconds())
			}
		}
		end()
		if algo == core.IDTD {
			lc.idtdAllocs += mallocs(t) - a0
		} else {
			lc.crxAllocs += mallocs(t) - a0
		}
	}

	end = t.begin("emit.dtd")
	dtdText := d.String()
	end()
	end = t.begin("emit.xsd")
	xsdText := xsd.Generate(d, x.TextSamples)
	end()
	lc.dtdBytes += float64(len(dtdText))
	lc.xsdBytes += float64(len(xsdText))

	end = t.begin("validate.compile")
	v := dtd.NewValidator(d)
	end()
	end = t.begin("validate")
	for i, doc := range c.validate {
		viol, err := v.ValidateOptions(bytes.NewReader(doc.body), nil)
		if err != nil || (len(viol) == 0) != doc.valid {
			r.fail(fmt.Errorf("validator on %s document %d: %d violations, %v; known answer valid=%v", c.name, i, len(viol), err, doc.valid))
		}
		if len(viol) > 0 {
			lc.validateInvalid++
		}
		lc.validateBytes += float64(len(doc.body))
		lc.validateDocs++
	}
	end()

	var buf bytes.Buffer
	end = t.begin("snapshot.save")
	err = core.WriteCorpus(x, &buf)
	end()
	if err != nil {
		return err
	}
	lc.snapshotBytes += float64(buf.Len())
	end = t.begin("snapshot.load")
	loaded, err := core.ReadCorpus(bytes.NewReader(buf.Bytes()))
	end()
	if err != nil {
		return err
	}

	// The recovered tenant: its first refresh replays the saved models,
	// then one fresh document is ingested and published.
	inc := core.NewIncrementalFromExtraction(loaded, core.IDTD, inferOptions(r.nproc))
	end = t.begin("refresh.recover")
	snap, err := inc.Refresh(ctx)
	end()
	if err != nil {
		return err
	}
	if snap.DTD.String() != c.refDTD {
		r.fail(fmt.Errorf("recovered %s serves a DTD that differs from the reference", c.name))
	}
	end = t.begin("refresh")
	doc := []dtd.Doc{{Label: "fresh", R: bytes.NewReader(c.fresh[0])}}
	if _, err = inc.AddDocs(ctx, doc, nil, dtd.FailFast); err == nil {
		snap, err = inc.Refresh(ctx)
	}
	end()
	if err != nil {
		return err
	}
	lc.refreshHits += float64(snap.Stats.CacheHits)
	lc.refreshRecomputes += float64(snap.Stats.CacheRecomputes + snap.Stats.CacheMisses)
	return nil
}

// run times both engines on the §8.3 sample, the median of a
// few runs, with the allocations per run.
func (e *example4) run(t *tracer) error {
	defer t.begin("op:example4")()
	for _, algo := range []core.Algorithm{core.IDTD, core.CRX} {
		a0 := mallocs(t)
		for i := 0; i < e.runs; i++ {
			end := t.begin(string(algo) + ".example4")
			start := time.Now()
			_, err := core.InferSampleExpr(e.set, algo, nil)
			d := time.Since(start).Seconds()
			end()
			if err != nil {
				return fmt.Errorf("%s on example4: %w", algo, err)
			}
			if algo == core.IDTD {
				e.idtdS = append(e.idtdS, d)
			} else {
				e.crxS = append(e.crxS, d)
			}
		}
		per := (mallocs(t) - a0) / float64(e.runs)
		if algo == core.IDTD {
			e.idtdAllocs = per
		} else {
			e.crxAllocs = per
		}
	}
	return nil
}

// layerPass runs the corpus operation, then example4.
func (r *run) layerPass(t *tracer, lc *layerCounts, ex *example4) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	r.attempted++
	if err := r.layerOp(t, r.c, lc); err != nil {
		r.failed++
		return 0, err
	}
	r.attempted++
	if err := ex.run(t); err != nil {
		r.failed++
		return 0, err
	}
	return time.Since(start), nil
}

// traced measures the per-layer metrics: one untraced pass for the
// overhead baseline, one traced pass for the spans, then the base-rate
// traffic step for the server's and the generator's counters.
func (r *run) traced(s stamp) error {
	untraced, err := r.layerPass(nil, &layerCounts{}, newExample4(r.seed))
	if err != nil {
		return err
	}
	t := newTracer()
	lc := &layerCounts{}
	ex := newExample4(r.seed)
	wall, err := r.layerPass(t, lc, ex)
	if err != nil {
		return err
	}
	self := selfByName(t.spans)
	get := func(name string) float64 { return self[name].Seconds() }
	perSec := func(bytes, s float64) float64 { return bytes / 1e6 / nonzero(s) }

	r.put("xmltok.busy_s", "s", get("xmltok"))
	r.put("xmltok.mb_per_s", "MB/s", perSec(lc.bytes, get("xmltok")))
	r.put("xmltok.tokens", "count", lc.tokens)
	r.put("ingest.busy_s", "s", get("ingest"))
	r.put("ingest.w1_s", "s", get("ingest.w1"))
	r.put("ingest.scaling", "ratio", get("ingest.w1")/nonzero(get("ingest")))
	r.put("ingest.mb_per_s", "MB/s", perSec(lc.bytes, get("ingest")))
	r.put("ingest.docs", "count", lc.docs)
	r.put("ingest.elements", "count", lc.elements)
	r.put("ingest.decode_s", "s", lc.decode)
	r.put("ingest.flush_wait_s", "s", lc.flushWait)
	r.put("ingest.commit_s", "s", lc.commit)
	r.put("ingest.committer_idle_s", "s", lc.committerIdle)
	r.put("ingest.flush_units", "count", lc.flushUnits)
	r.put("sample.total", "count", lc.total)
	r.put("sample.unique", "count", lc.unique)
	r.put("sample.unique_ratio", "ratio", lc.unique/nonzero(lc.total))
	r.put("sample.max_alphabet", "count", lc.maxAlphabet)
	r.put("infer.busy_s", "s", get("infer"))
	r.put("infer.elements", "count", lc.inferElements)
	r.put("infer.max_element_s", "s", lc.maxElement)
	r.put("infer.cache_hits", "count", lc.cacheHits)
	r.put("infer.cache_misses", "count", lc.cacheMisses)
	r.put("infer.degraded", "count", lc.degraded)
	r.put("idtd.busy_s", "s", get("idtd"))
	r.put("idtd.max_element_s", "s", lc.idtdMax)
	r.put("idtd.allocs", "count", lc.idtdAllocs)
	r.put("crx.busy_s", "s", get("crx"))
	r.put("crx.allocs", "count", lc.crxAllocs)
	r.put("idtd.example4_s", "s", median(ex.idtdS))
	r.put("idtd.example4_allocs", "count", ex.idtdAllocs)
	r.put("crx.example4_s", "s", median(ex.crxS))
	r.put("crx.example4_allocs", "count", ex.crxAllocs)
	r.put("emit.dtd_s", "s", get("emit.dtd"))
	r.put("emit.xsd_s", "s", get("emit.xsd"))
	r.put("emit.dtd_bytes", "bytes", lc.dtdBytes)
	r.put("emit.xsd_bytes", "bytes", lc.xsdBytes)
	r.put("validate.compile_s", "s", get("validate.compile"))
	r.put("validate.busy_s", "s", get("validate"))
	r.put("validate.mb_per_s", "MB/s", perSec(lc.validateBytes, get("validate")))
	r.put("validate.docs", "count", lc.validateDocs)
	r.put("validate.invalid", "count", lc.validateInvalid)
	r.put("snapshot.save_s", "s", get("snapshot.save"))
	r.put("snapshot.load_s", "s", get("snapshot.load"))
	r.put("snapshot.bytes", "bytes", lc.snapshotBytes)
	r.put("snapshot.bytes_per_corpus_byte", "ratio", lc.snapshotBytes/nonzero(lc.bytes))
	r.put("refresh.s", "s", get("refresh"))
	r.put("refresh.cache_hits", "count", lc.refreshHits)
	r.put("refresh.recomputes", "count", lc.refreshRecomputes)

	// The op root spans' self time is what no layer span covers: the
	// benchmark's own glue between calls.
	var uncovered time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, "op:") {
			uncovered += d
		}
	}
	r.put("trace.op_wall_s", "s", wall.Seconds())
	r.put("trace.uncovered_s", "s", uncovered.Seconds())
	r.put("trace.overhead_ratio", "ratio", wall.Seconds()/untraced.Seconds())
	r.printLayers(self, wall)

	if err := r.tracedTraffic(); err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "spans"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", r.w.name, r.seed))
	if err := writeSpans(path, s, t.spans); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return nil
}

// printLayers prints each span name's self time and share of the traced
// wall time, largest first.
func (r *run) printLayers(self map[string]time.Duration, wall time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var sum time.Duration
	for _, n := range names {
		sum += self[n]
		fmt.Printf("self %-18s %10.4fs %6.2f%%\n", n, self[n].Seconds(), 100*self[n].Seconds()/wall.Seconds())
	}
	fmt.Printf("self total %.4fs of traced wall %.4fs (the rest is between operations)\n", sum.Seconds(), wall.Seconds())
}
