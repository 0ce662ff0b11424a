package dtdinfer

// The benchmark harness regenerates every table and figure of the paper's
// evaluation; run with
//
//	go test -bench=. -benchmem
//
// Figure 4 runs with reduced trial counts here to keep benchmark runs
// short; cmd/experiments reproduces the full 200-trial curves.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
	"dtdinfer/internal/stateelim"
)

// BenchmarkConcisenessStateElimVsRewrite regenerates the introduction's
// (†) vs (‡) contrast on the Figure 1 automaton.
func BenchmarkConcisenessStateElimVsRewrite(b *testing.B) {
	b.Run("rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := experiments.RunConciseness()
			if err != nil {
				b.Fatal(err)
			}
			if r.RewriteTokens != 12 {
				b.Fatalf("rewrite tokens = %d", r.RewriteTokens)
			}
		}
	})
	b.Run("stateelim", func(b *testing.B) {
		sample := [][]string{split("bacacdacde"), split("cbacdbacde"), split("abccaadcde")}
		a := soa.Infer(sample)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stateelim.FromSOA(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func split(w string) []string {
	out := make([]string, len(w))
	for i, r := range w {
		out[i] = string(r)
	}
	return out
}

// BenchmarkTable1 regenerates Table 1, one sub-benchmark per element
// definition and algorithm.
func BenchmarkTable1(b *testing.B) {
	for _, row := range experiments.Table1 {
		truth := regex.MustParse(row.CorpusTruth)
		// One sampler for both branches, so the representative-sample
		// fallback draws from the same stream as the initial sample.
		s := datagen.NewSampler(1)
		sample := s.SampleN(truth, row.SampleSize)
		if cover := datagen.EdgeCoverSample(truth); len(cover) <= row.SampleSize {
			sample = datagen.RepresentativeSample(s, truth, row.SampleSize)
		}
		for _, algo := range []core.Algorithm{core.CRX, core.IDTD} {
			b.Run(row.Element+"/"+string(algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.InferExpr(sample, algo, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2, one sub-benchmark per expression and
// algorithm (xtract on its capped sample).
func BenchmarkTable2(b *testing.B) {
	for _, row := range experiments.Table2 {
		target := regex.MustParse(row.Original)
		s := datagen.NewSampler(1)
		sample := datagen.RepresentativeSample(s, target, row.SampleSize)
		for _, algo := range []core.Algorithm{core.CRX, core.IDTD, core.TrangLike} {
			b.Run(row.Element+"/"+string(algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.InferExpr(sample, algo, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		xs := sample
		if row.XtractSize < len(sample) {
			xs = sample[:row.XtractSize]
		}
		b.Run(row.Element+"/xtract", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.InferExpr(xs, core.XTRACT, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 regenerates the three generalization panels with reduced
// trial counts (the full 200-trial version is cmd/experiments -exp=figure4).
func BenchmarkFigure4(b *testing.B) {
	for _, panel := range experiments.Figure4 {
		b.Run(panel.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunFigure4Panel(panel, &experiments.Figure4Config{
					Trials: 5, Steps: 6, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Points) == 0 {
					b.Fatal("no curve points")
				}
			}
		})
	}
}

// BenchmarkPerfIDTDExample4 and BenchmarkPerfCRXExample4 are the Section
// 8.3 timing workloads: example4 (61 symbols) from 10000 strings. The paper
// reports 7 s (iDTD) and 3.2 s (CRX) on a 2.5 GHz Pentium 4 including JVM
// startup.
func BenchmarkPerfIDTDExample4(b *testing.B) {
	benchPerf(b, core.IDTD)
}

// BenchmarkPerfCRXExample4 is the CRX side of the Section 8.3 comparison.
func BenchmarkPerfCRXExample4(b *testing.B) {
	benchPerf(b, core.CRX)
}

func benchPerf(b *testing.B, algo core.Algorithm) {
	row := experiments.Table2[3]
	target := regex.MustParse(row.Original)
	sample := datagen.RepresentativeSample(datagen.NewSampler(1), target, row.SampleSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.InferExpr(sample, algo, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfTypical times the paper's "typical" workload: a 10-symbol
// expression from a few hundred strings (about a second on their machine).
func BenchmarkPerfTypical(b *testing.B) {
	typical := regex.MustParse("a1 a2? (a3 + a4 + a5)* a6 (a7 + a8)? a9* a10")
	sample := datagen.RepresentativeSample(datagen.NewSampler(1), typical, 300)
	for _, algo := range []core.Algorithm{core.IDTD, core.CRX} {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.InferExpr(sample, algo, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndDTD measures whole-pipeline inference (XML parsing,
// extraction, per-element inference) on the synthetic Protein corpus,
// once sequentially and once per parallel ingestion worker count. The
// output is byte-identical across worker counts; only wall clock changes.
func BenchmarkEndToEndDTD(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchCorpus(b, 200, 1) })
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			benchCorpus(b, 200, workers)
		})
	}
}

func benchCorpus(b *testing.B, n, workers int) {
	docs, docBytes := corpusDocs(n)
	opts := &Options{Parallelism: workers}
	// Emit the workload shape alongside the timings: parallel ingestion
	// only pays off once the corpus outweighs the goroutine/merge overhead
	// and GOMAXPROCS actually offers cores, so regressions in par* vs seq
	// are uninterpretable without both numbers.
	b.ReportMetric(float64(benchDocCount(n)), "corpus-docs")
	b.ReportMetric(float64(docBytes), "corpus-bytes")
	reportCPUShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InferDTD(docs(), IDTD, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestParallel isolates the sharded ingestion pipeline (XML
// decoding and extraction, no inference) across worker counts.
func BenchmarkIngestParallel(b *testing.B) {
	docs, docBytes := corpusDocs(400)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(docBytes), "corpus-bytes")
			reportCPUShape(b)
			var last *IngestReport
			for i := 0; i < b.N; i++ {
				x := NewExtraction()
				report, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(docs()), workers, nil, dtd.FailFast)
				if err != nil {
					b.Fatal(err)
				}
				last = report
			}
			reportPipelineStages(b, last)
		})
	}
}

// BenchmarkIngestOneDoc measures the daemon's per-request ingest: one
// Protein document into a warm 300-document extraction through the batch
// verb, which runs the one-worker batch inline. Each iteration ingests
// the next document of a fixed pool of unseen ones, so the corpus stays
// warm without growing new shapes on every call.
func BenchmarkIngestOneDoc(b *testing.B) {
	x := NewExtraction()
	if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(corpus.Documents(corpus.Protein(1, 300))), 1, nil, dtd.FailFast); err != nil {
		b.Fatal(err)
	}
	pool := corpus.Protein(2, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := []dtd.Doc{{Label: "doc", R: strings.NewReader(pool[i%len(pool)])}}
		if _, err := x.AddDocsParallelContext(context.Background(), docs, 1, nil, dtd.SkipAndRecord); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures validation: ValidateOptions under
// DefaultIngestOptions over the ingestion benchmark's corpus, against the
// DTD inferred from that corpus (inference is off the clock), so every
// document is valid and read to the end.
func BenchmarkValidate(b *testing.B) {
	docs, docBytes := corpusDocs(400)
	x := NewExtraction()
	if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(docs()), 0, nil, dtd.FailFast); err != nil {
		b.Fatal(err)
	}
	d, err := InferDTDFromExtraction(x, IDTD, nil)
	if err != nil {
		b.Fatal(err)
	}
	v := NewValidator(d)
	opts := DefaultIngestOptions()
	b.ReportMetric(float64(docBytes), "corpus-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range docs() {
			violations, err := v.ValidateOptions(r, opts)
			if err != nil || len(violations) != 0 {
				b.Fatalf("corpus document does not validate: %v %v", err, violations)
			}
		}
	}
}

// reportCPUShape records the CPU context a parallel benchmark ran under.
// A recorded gomaxprocs of 1, or cpus of 1 with an oversubscribed
// gomaxprocs, means the run never exercised real parallelism — BENCH_PR5
// hid a parallel-ingestion regression exactly this way, so the shape is
// now part of every recorded entry.
func reportCPUShape(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// reportPipelineStages records the pipelined committer's per-stage wall
// and idle timings from the last iteration's report, under "stage-*-ns"
// units so cmd/benchjson groups them into a stage_ns breakdown per
// entry. The workers=1 entry reports none: it runs the one-worker batch
// inline, outside the pipeline.
func reportPipelineStages(b *testing.B, report *IngestReport) {
	if report == nil || report.Pipeline == nil {
		return
	}
	p := report.Pipeline
	b.ReportMetric(float64(p.Decode.Nanoseconds()), "stage-decode-ns")
	b.ReportMetric(float64(p.FlushWait.Nanoseconds()), "stage-flush-wait-ns")
	b.ReportMetric(float64(p.Commit.Nanoseconds()), "stage-commit-ns")
	b.ReportMetric(float64(p.CommitterIdle.Nanoseconds()), "stage-committer-idle-ns")
	b.ReportMetric(float64(p.FinalMerge.Nanoseconds()), "stage-final-merge-ns")
	b.ReportMetric(float64(p.Wall.Nanoseconds()), "stage-wall-ns")
	b.ReportMetric(float64(p.FlushUnits), "flush-units")
	b.ReportMetric(float64(p.ArenaReuses), "arena-reuses")
}

// benchCorpusMB is the DTDINFER_BENCH_MB override: when set (as `make
// bench` does), the ingestion benchmarks run over a generated corpus of at
// least that many megabytes instead of the small default, so parallel
// worker counts are measured against a workload big enough to amortize
// fan-out. The corpus is generated once and shared across benchmarks.
var (
	benchBigOnce  sync.Once
	benchBigDocs  []string
	benchBigBytes int64
)

func benchBigCorpus() ([]string, int64) {
	benchBigOnce.Do(func() {
		mb, err := strconv.Atoi(os.Getenv("DTDINFER_BENCH_MB"))
		if err != nil || mb <= 0 {
			return
		}
		want := int64(mb) * 1_000_000
		// Generate in slabs until the size target is met; seeds advance so
		// slabs differ, and the loop is deterministic for a given target.
		for seed := int64(1); benchBigBytes < want; seed++ {
			slab := corpus.Protein(seed, 5000)
			for _, d := range slab {
				benchBigBytes += int64(len(d))
			}
			benchBigDocs = append(benchBigDocs, slab...)
		}
	})
	return benchBigDocs, benchBigBytes
}

// benchDocCount reports how many documents corpusDocs(n) actually serves.
func benchDocCount(n int) int {
	if docs, _ := benchBigCorpus(); docs != nil {
		return len(docs)
	}
	return n
}

// corpusDocs returns a factory of fresh readers over a generated Protein
// corpus (readers are consumed by each inference run) plus the corpus
// byte size. n documents are generated unless DTDINFER_BENCH_MB demands a
// bigger corpus.
func corpusDocs(n int) (func() []io.Reader, int64) {
	docs, bytes := benchBigCorpus()
	if docs == nil {
		docs = corpus.Protein(1, n)
		for _, d := range docs {
			bytes += int64(len(d))
		}
	}
	return func() []io.Reader { return corpus.Documents(docs) }, bytes
}

// BenchmarkIncrementalInfer measures memoized re-inference against cold
// inference over the same extraction. "cold" invalidates the model cache
// every iteration, so every element re-enters the engine. "warm-1elem"
// re-infers after an update that gives exactly one element (the corpus
// root) a shape it has never seen; every other element is served from the
// fingerprinted cache. "warm-10pct" re-infers after ingesting a fresh
// batch a tenth the corpus size. Ingestion is off the clock (StopTimer):
// the contrast is pure inference cost. The recorded cache-hits/engine-runs
// metrics show how much of each pass was memoized.
func BenchmarkIncrementalInfer(b *testing.B) {
	const nDocs = 2000
	docs := corpus.Protein(1, nDocs)
	build := func(b *testing.B) *Extraction {
		x := NewExtraction()
		if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(corpus.Documents(docs)), 1, nil, dtd.FailFast); err != nil {
			b.Fatal(err)
		}
		return x
	}
	infer := func(b *testing.B, x *Extraction) *dtd.InferStats {
		_, st, err := core.InferDTDFromExtractionStats(x, core.IDTD, nil)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	report := func(b *testing.B, hits, engine int64) {
		b.ReportMetric(float64(hits)/float64(b.N), "cache-hits/op")
		b.ReportMetric(float64(engine)/float64(b.N), "engine-runs/op")
	}

	b.Run("cold", func(b *testing.B) {
		x := build(b)
		var hits, engine int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.InvalidateCache()
			st := infer(b, x)
			hits += int64(st.CacheHits)
			engine += int64(st.CacheMisses + st.CacheRecomputes)
		}
		report(b, hits, engine)
	})

	b.Run("warm-1elem", func(b *testing.B) {
		x := build(b)
		inner := strings.TrimSuffix(strings.TrimPrefix(docs[0], "<ProteinDatabase>"), "</ProteinDatabase>")
		infer(b, x) // prime the cache
		var hits, engine int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// The repeat count grows monotonically, so every update hands
			// the root a child sequence it has never seen; the entry
			// subtree replays document 0, so every other element's sample
			// keeps its fingerprint and stays warm.
			doc := "<ProteinDatabase>" + strings.Repeat(inner, 50+i) + "</ProteinDatabase>"
			if err := x.AddDocument(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st := infer(b, x)
			hits += int64(st.CacheHits)
			engine += int64(st.CacheMisses + st.CacheRecomputes)
		}
		report(b, hits, engine)
	})

	b.Run("warm-10pct", func(b *testing.B) {
		x := build(b)
		infer(b, x) // prime the cache
		var hits, engine int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := corpus.Protein(int64(1000+i), nDocs/10)
			if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(corpus.Documents(batch)), 1, nil, dtd.FailFast); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st := infer(b, x)
			hits += int64(st.CacheHits)
			engine += int64(st.CacheMisses + st.CacheRecomputes)
		}
		report(b, hits, engine)
	})
}

// BenchmarkIngestDedup contrasts the two sample pipelines on a
// duplicate-heavy sample. "verbatim" feeds every string to the engine
// individually — the pre-counted representation, paid on every inference
// call. "counted" infers from the deduplicated sample.Set the ingestion
// layer hands every engine (built once per corpus, outside the loop);
// "counted-cold" additionally pays the one-time build. All three produce
// the identical expression.
func BenchmarkIngestDedup(b *testing.B) {
	typical := regex.MustParse("a1 a2? (a3 + a4 + a5)* a6 (a7 + a8)? a9* a10")
	strs := datagen.RepresentativeSample(datagen.NewSampler(1), typical, 10000)
	set := sample.FromStrings(strs)
	b.Logf("sample: %d strings, %d unique", set.Total(), set.Unique())
	b.Run("verbatim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idtd.Infer(strs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idtd.InferSample(set, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counted-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := idtd.InferSample(sample.FromStrings(strs), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRepairPolicy measures the design choice DESIGN.md calls
// out: how the repair-candidate policy affects iDTD's exact-recovery rate
// on sparse samples of random SOREs. Run with -v to see the rates; the
// benchmark reports recoveries per policy via b.ReportMetric.
func BenchmarkAblationRepairPolicy(b *testing.B) {
	alpha := []string{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		name   string
		policy idtd.RepairPolicy
	}{
		{"balanced", idtd.PolicyBalanced},
		{"disjunction-first", idtd.PolicyDisjunctionFirst},
		{"optional-first", idtd.PolicyOptionalFirst},
	} {
		b.Run(tc.name, func(b *testing.B) {
			exact, runs := 0, 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				target := regextest.RandomSORE(rng, alpha, 3)
				var ws [][]string
				nonEmpty := false
				for j := 0; j < 8; j++ {
					w := regextest.Sample(rng, target, 1, 2)
					nonEmpty = nonEmpty || len(w) > 0
					ws = append(ws, w)
				}
				if !nonEmpty {
					continue
				}
				res, err := idtd.Infer(ws, &idtd.Options{Policy: tc.policy})
				if err != nil {
					b.Fatal(err)
				}
				runs++
				if automata.ExprEquivalent(res.Expr, target) {
					exact++
				}
			}
			if runs > 0 {
				b.ReportMetric(float64(exact)/float64(runs), "exact-recovery")
			}
		})
	}
}

// BenchmarkSnapshotSave and BenchmarkSnapshotLoad measure durable corpus
// summaries against the work they replace. Save serializes the in-memory
// summary; load deserializes and revalidates it; "reingest" is the cost
// of rebuilding the same extraction from the raw documents, which is
// what a process restart pays without a snapshot. The summary-bytes
// metric against corpus-bytes shows the compression a summary achieves
// over the corpus it stands in for.
func BenchmarkSnapshotSave(b *testing.B) {
	docs, docBytes := corpusDocs(400)
	x := NewExtraction()
	if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(docs()), 1, nil, dtd.FailFast); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(x, &buf); err != nil {
		b.Fatal(err)
	}
	summaryBytes := buf.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteCorpus(x, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docBytes), "corpus-bytes")
	b.ReportMetric(float64(summaryBytes), "summary-bytes")
}

func BenchmarkSnapshotLoad(b *testing.B) {
	docs, docBytes := corpusDocs(400)
	x := NewExtraction()
	if _, err := x.AddDocsParallelContext(context.Background(), dtd.LabelDocs(docs()), 1, nil, dtd.FailFast); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(x, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	b.Run("load", func(b *testing.B) {
		b.ReportMetric(float64(docBytes), "corpus-bytes")
		b.ReportMetric(float64(len(data)), "summary-bytes")
		for i := 0; i < b.N; i++ {
			if _, err := ReadCorpus(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The baseline a load replaces: re-parsing every document. The
	// acceptance bar for this PR is load ≥ 10x faster than reingest at
	// BENCH_MB=100.
	b.Run("reingest", func(b *testing.B) {
		b.ReportMetric(float64(docBytes), "corpus-bytes")
		for i := 0; i < b.N; i++ {
			y := NewExtraction()
			if _, err := y.AddDocsParallelContext(context.Background(), dtd.LabelDocs(docs()), 1, nil, dtd.FailFast); err != nil {
				b.Fatal(err)
			}
		}
	})
}
