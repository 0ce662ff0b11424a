package dtd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// countingInferrer is a deterministic children-content inferrer that
// counts how often the "engine" actually runs: (a1|...|an)* over the
// sample's alphabet.
func countingInferrer(calls *atomic.Int64) InferElementFunc {
	return func(ctx context.Context, name string, s *sample.Set) (*regex.Expr, *ElementOutcome, error) {
		calls.Add(1)
		syms := s.Symbols()
		subs := make([]*regex.Expr, len(syms))
		for i, sym := range syms {
			subs[i] = regex.Sym(sym)
		}
		return regex.Simplify(regex.Star(regex.Union(subs...))),
			&ElementOutcome{Name: name, Engine: "counting"}, nil
	}
}

// assertTally checks that a pass classified every children-content
// element exactly once as a cache hit, miss or recompute.
func assertTally(t *testing.T, pass string, x *Extraction, s *InferStats) {
	t.Helper()
	children := 0
	for name, seqs := range x.Sequences {
		if seqs.NumSymbols() > 0 && !x.HasText[name] {
			children++
		}
	}
	if got := s.CacheHits + s.CacheMisses + s.CacheRecomputes; got != children {
		t.Errorf("%s: %d hits + %d misses + %d recomputes = %d, want %d children-content elements",
			pass, s.CacheHits, s.CacheMisses, s.CacheRecomputes, got, children)
	}
}

func mustAdd(t *testing.T, x *Extraction, doc string) {
	t.Helper()
	if err := x.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestCachedInferenceHitsAndRecomputes drives the per-element model
// cache through its three outcomes: a cold pass misses everywhere, an
// unchanged pass hits everywhere without running the engine, and a pass
// after one element's sample gained a new shape recomputes exactly that
// element.
func TestCachedInferenceHitsAndRecomputes(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a><c/></a><b><c/></b></r>`)
	cfg := CacheConfig{Key: "test"}
	var calls atomic.Int64

	// Children-content elements: r, a, b (c is EMPTY, structural).
	d1, s1, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("cold pass ran engine %d times, want 3", got)
	}
	if s1.CacheMisses != 3 || s1.CacheHits != 0 || s1.CacheRecomputes != 0 {
		t.Errorf("cold pass counters: %d hits %d misses %d recomputes, want 0/3/0",
			s1.CacheHits, s1.CacheMisses, s1.CacheRecomputes)
	}
	assertTally(t, "cold pass", x, s1)
	if s1.Dirty != 4 {
		t.Errorf("cold pass dirty=%d, want 4 (every observed element)", s1.Dirty)
	}

	calls.Store(0)
	d2, s2, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("warm pass ran engine %d times, want 0", got)
	}
	if s2.CacheHits != 3 || s2.CacheMisses != 0 || s2.CacheRecomputes != 0 {
		t.Errorf("warm pass counters: %d hits %d misses %d recomputes, want 3/0/0",
			s2.CacheHits, s2.CacheMisses, s2.CacheRecomputes)
	}
	assertTally(t, "warm pass", x, s2)
	if s2.Dirty != 0 {
		t.Errorf("warm pass dirty=%d, want 0", s2.Dirty)
	}
	if d1.String() != d2.String() {
		t.Errorf("warm pass not byte-identical:\ncold: %s\nwarm: %s", d1, d2)
	}

	// New shape for a only: [c c]. r re-observes [a b], b re-observes [c].
	mustAdd(t, x, `<r><a><c/><c/></a><b><c/></b></r>`)
	if got := x.DirtyElements(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("dirty after update = %v, want [a]", got)
	}
	calls.Store(0)
	_, s3, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("update pass ran engine %d times, want 1", got)
	}
	if s3.CacheHits != 2 || s3.CacheRecomputes != 1 || s3.CacheMisses != 0 {
		t.Errorf("update pass counters: %d hits %d misses %d recomputes, want 2/0/1",
			s3.CacheHits, s3.CacheMisses, s3.CacheRecomputes)
	}
	assertTally(t, "update pass", x, s3)
	if s3.Dirty != 1 {
		t.Errorf("update pass dirty=%d, want 1", s3.Dirty)
	}
	if len(x.DirtyElements()) != 0 {
		t.Errorf("dirty not cleared by successful pass: %v", x.DirtyElements())
	}
}

// TestCachedInferenceCountedFingerprint: under a count-sensitive config,
// re-ingesting an already-seen document (multiplicity bump, no new
// shape) must recompute; under a shape-only config it must hit.
func TestCachedInferenceCountedFingerprint(t *testing.T) {
	doc := `<r><a/><a/></r>`
	for _, tc := range []struct {
		counted                bool
		wantHits, wantRecomput int
	}{
		{counted: false, wantHits: 1, wantRecomput: 0},
		{counted: true, wantHits: 0, wantRecomput: 1},
	} {
		x := NewExtraction()
		mustAdd(t, x, doc)
		cfg := CacheConfig{Key: fmt.Sprintf("counted=%t", tc.counted), Counted: tc.counted}
		var calls atomic.Int64
		if _, _, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls)); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, x, doc) // same shapes again: counts move, shapes don't
		if got := len(x.DirtyElements()); got != 0 {
			t.Errorf("counted=%t: multiplicity-only ingest marked %d elements dirty", tc.counted, got)
		}
		_, s, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls))
		if err != nil {
			t.Fatal(err)
		}
		if s.CacheHits != tc.wantHits || s.CacheRecomputes != tc.wantRecomput {
			t.Errorf("counted=%t: %d hits %d recomputes, want %d/%d",
				tc.counted, s.CacheHits, s.CacheRecomputes, tc.wantHits, tc.wantRecomput)
		}
	}
}

// TestCachedInferenceConfigKeysIsolated: two configurations never share
// cache entries, even on the same extraction.
func TestCachedInferenceConfigKeysIsolated(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a/></r>`)
	var calls atomic.Int64
	if _, _, err := x.InferDTD(context.Background(), CacheConfig{Key: "one"}, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	_, s, err := x.InferDTD(context.Background(), CacheConfig{Key: "two"}, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Errorf("different key reused entries: %d hits %d misses", s.CacheHits, s.CacheMisses)
	}
}

// TestCachedInferenceFailedPassKeepsDirty: a pass that fails must leave
// the dirty bits so the next pass still knows what changed.
func TestCachedInferenceFailedPassKeepsDirty(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a><b/></a></r>`)
	cfg := CacheConfig{Key: "test"}
	boom := errors.New("boom")
	failing := func(ctx context.Context, name string, s *sample.Set) (*regex.Expr, *ElementOutcome, error) {
		if name == "a" {
			return nil, nil, boom
		}
		var calls atomic.Int64
		return countingInferrer(&calls)(ctx, name, s)
	}
	if _, _, err := x.InferDTD(context.Background(), cfg, failing); !errors.Is(err, boom) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if got := x.DirtyElements(); len(got) == 0 {
		t.Error("failed pass cleared the dirty bits")
	}
	var calls atomic.Int64
	if _, _, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	if got := x.DirtyElements(); len(got) != 0 {
		t.Errorf("successful pass left dirty bits: %v", got)
	}
}

// TestCachedInferenceInvalidate: InvalidateCache forces a full cold
// pass.
func TestCachedInferenceInvalidate(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a/></r>`)
	cfg := CacheConfig{Key: "test"}
	var calls atomic.Int64
	if _, _, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	x.InvalidateCache()
	_, s, err := x.InferDTD(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Errorf("after invalidation: %d hits %d misses, want 0/1", s.CacheHits, s.CacheMisses)
	}
	assertTally(t, "invalidated pass", x, s)
}

// TestDirtyTrackingAcrossIngestionPaths: every ingestion path —
// sequential and parallel — must mark the same elements dirty for the
// same corpus delta.
func TestDirtyTrackingAcrossIngestionPaths(t *testing.T) {
	base := []string{
		`<r><a><c/></a><b>text</b></r>`,
		`<r><a><c/></a><b>more</b></r>`,
	}
	update := `<r><a><c/><c/></a><b>again</b></r>` // new shape for a only
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		x := NewExtraction()
		ingest := func(doc ...string) {
			docs := make([]Doc, len(doc))
			for i, d := range doc {
				docs[i] = Doc{Label: fmt.Sprintf("doc%d", i), R: strings.NewReader(d)}
			}
			if _, err := x.AddDocsParallelContext(context.Background(), docs, workers, nil, FailFast); err != nil {
				t.Fatal(err)
			}
		}
		ingest(base...)
		want := []string{"a", "b", "c", "r"}
		if got := x.DirtyElements(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: initial dirty = %v, want %v", name, got, want)
		}
		var calls atomic.Int64
		if _, _, err := x.InferDTD(context.Background(), CacheConfig{Key: "t"}, countingInferrer(&calls)); err != nil {
			t.Fatal(err)
		}
		ingest(base[0]) // already-seen shapes only
		if got := x.DirtyElements(); len(got) != 0 {
			t.Errorf("%s: repeat doc marked dirty: %v", name, got)
		}
		ingest(update)
		if got := x.DirtyElements(); !reflect.DeepEqual(got, []string{"a"}) {
			t.Errorf("%s: update dirty = %v, want [a]", name, got)
		}
	}
}

// TestInferStatsStringCacheLine: every pass consults the model cache,
// so the stats renderer always reports the cache counters — zero-valued
// stats included.
func TestInferStatsStringCacheLine(t *testing.T) {
	withCache := &InferStats{CacheHits: 2, CacheMisses: 1, CacheRecomputes: 3, Dirty: 4}
	s := withCache.String()
	if !strings.Contains(s, "cache: 2 hits, 1 misses, 3 recomputes; 4 dirty elements") {
		t.Errorf("cache line missing or malformed:\n%s", s)
	}
	if s := (&InferStats{}).String(); !strings.Contains(s, "cache: 0 hits, 0 misses, 0 recomputes; 0 dirty elements; attlist recomputed") {
		t.Errorf("zero stats rendered no zero cache line:\n%s", s)
	}
}
