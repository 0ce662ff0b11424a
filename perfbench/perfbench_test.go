package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for perfbench as the launcher
// runDtdinfer starts.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestLaunchReportsTheChildsOwnPeakRSS(t *testing.T) {
	// Touch 128 MB, so this process's peak is far above the child's.
	big := make([]byte, 128<<20)
	for i := range big {
		big[i] = byte(i)
	}
	res, err := runDtdinfer("/bin/true", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.rssMB <= 0 || res.rssMB > 64 || res.wall <= 0 {
		t.Errorf("child peak RSS %.1f MB, wall %v; want the child's own few MB", res.rssMB, res.wall)
	}
	if big[len(big)-1] != byte(len(big)-1) {
		t.Fatal("unreachable")
	}
	if _, err := runDtdinfer("/bin/false", nil); err == nil {
		t.Error("a failing child gave no error")
	}
}

// smallCorpus generates n files of the named corpus and its reference.
func smallCorpus(t *testing.T, name string, seed int64, n int) (*corpusInput, string) {
	t.Helper()
	ws := newWideSchema()
	gen := func(i int) []byte { return proteinFile(seed, streamProtein, i) }
	if name == "wide" {
		gen = func(i int) []byte { return ws.file(seed, streamWide, i) }
	}
	files, err := writeCorpus(filepath.Join(t.TempDir(), name), n, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	c := &corpusInput{name: name, files: files}
	if err := c.reference(); err != nil {
		t.Fatal(err)
	}
	h, err := hashFiles(files.paths)
	if err != nil {
		t.Fatal(err)
	}
	return c, h
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"protein", 2}, {"wide", 8}} {
		a, ha := smallCorpus(t, tc.name, 7, tc.n)
		b, hb := smallCorpus(t, tc.name, 7, tc.n)
		c, hc := smallCorpus(t, tc.name, 8, tc.n)
		if ha != hb || a.refHash != b.refHash {
			t.Errorf("%s: the same seed gave different inputs or references", tc.name)
		}
		if ha == hc || a.refHash == c.refHash {
			t.Errorf("%s: different seeds gave the same inputs or references", tc.name)
		}
	}
}

func TestTrafficDocsDeterministic(t *testing.T) {
	build := func(seed int64) *corpusInput {
		c, _ := smallCorpus(t, "wide", seed, 4)
		r := &run{w: workloads[1], seed: seed, seconds: 2, c: c}
		r.trafficDocs(c)
		return c
	}
	a, b, c := build(3), build(3), build(4)
	same := func(x, y *corpusInput) bool {
		if len(x.validate) != len(y.validate) || len(x.fresh) != len(y.fresh) {
			return false
		}
		for i := range x.validate {
			if string(x.validate[i].body) != string(y.validate[i].body) || x.validate[i].valid != y.validate[i].valid {
				return false
			}
		}
		for i := range x.fresh {
			if string(x.fresh[i]) != string(y.fresh[i]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different request streams")
	}
	if same(a, c) {
		t.Error("different seeds gave the same request stream")
	}
	invalid := 0
	for _, d := range a.validate {
		if !d.valid {
			invalid++
		}
	}
	if invalid != validatePool/invalidEvery {
		t.Errorf("%d invalid documents in the pool, want %d", invalid, validatePool/invalidEvery)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestRefusedRequestIsFailedAndMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/documents" {
			http.Error(w, "ingest queue full, retry later", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"valid": true}`))
	}))
	defer srv.Close()
	ok := func(int) request { return request{path: "/validate", check: validateCheck(true)} }
	var version uint64
	refused := func(int) request {
		return request{path: "/documents", check: versionCheck(&version)}
	}
	var vn, in int
	st := runStep(newConnClient(), newConnClient(), srv.URL,
		streamSpec{rate: 200, next: ok}, streamSpec{rate: 20, next: refused}, 100*time.Millisecond, &vn, &in)
	a, f, wrong := counts(st.ingest)
	if a == 0 || f != a || wrong != nil {
		t.Fatalf("ingest: attempted %d, failed %d, wrong %v; want every 429 failed", a, f, wrong)
	}
	if l := latencies(st.ingest); !math.IsInf(l[0], 1) {
		t.Errorf("a refused request has latency %v, want +Inf", l[0])
	}
	if st.passes(limits{validate: time.Second, ingest: time.Hour}) {
		t.Error("a step whose ingests were all refused passes the latency limit")
	}
	if _, f, _ := counts(st.validate); f != 0 {
		t.Errorf("%d validates failed, want 0", f)
	}
}

func TestWrongVerdictIsIncorrect(t *testing.T) {
	if validateCheck(false)([]byte(`{"valid": true}`)) == nil {
		t.Error("a valid verdict for an invalid document passed the check")
	}
	var v uint64
	check := versionCheck(&v)
	if check([]byte(`{"version": 5}`)) != nil || check([]byte(`{"version": 5}`)) != nil {
		t.Error("non-decreasing versions failed the check")
	}
	if check([]byte(`{"version": 4}`)) == nil {
		t.Error("a version going back passed the check")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// op: 100 − (union of [10,50] and [90,100]) = 100 − 50.
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != 50 || byName["b"] != 20 {
		t.Errorf("self by name = %v", byName)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endOp := tr.begin("op")
	endA := tr.begin("a")
	endA()
	endOp()
	tr.begin("op2")()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != 1 || tr.spans[1].Op != 1 || tr.spans[2].Op != 2 || tr.spans[2].Parent != 0 {
		t.Errorf("spans = %+v", tr.spans)
	}
	var none *tracer
	none.begin("x")() // a nil tracer records nothing
}

// hashFiles is the SHA-256 over the files' contents in order, for the
// determinism tests.
func hashFiles(paths []string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
