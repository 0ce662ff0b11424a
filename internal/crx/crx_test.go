package crx

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	smp "dtdinfer/internal/sample"
)

// ctx is the background context the tests run CRX under.
var ctx = context.Background()

// inferWords runs CRX on the counted sample of a verbatim sample, the path
// every production caller takes.
func inferWords(ws [][]string) (*Result, error) {
	st := NewState()
	st.AddSample(smp.FromStrings(ws))
	return st.Infer(ctx)
}

// addString folds one verbatim string into the summary. It is the
// reference the counted AddSample is held to: the per-string fold the
// summary was defined by, before samples were counted.
func (st *State) addString(w []string) {
	st.total++
	st.gen++
	st.touched = st.touched[:0]
	prev := -1
	for _, s := range w {
		id := st.internID(s)
		if st.stamp[id] != st.gen {
			st.stamp[id] = st.gen
			st.counts[id] = 1
			st.touched = append(st.touched, int32(id))
		} else if st.counts[id] < 2 {
			st.counts[id]++
		}
		if prev >= 0 {
			st.edges[prev].Set(id)
		}
		prev = id
	}
	st.bumpProfileCount(1)
}

func split(w string) []string {
	if w == "" {
		return nil
	}
	out := make([]string, len(w))
	for i, r := range w {
		out[i] = string(r)
	}
	return out
}

func sample(ws ...string) [][]string {
	out := make([][]string, len(ws))
	for i, w := range ws {
		out[i] = split(w)
	}
	return out
}

func infer(t *testing.T, ws [][]string) *regex.Expr {
	t.Helper()
	res, err := inferWords(ws)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !res.Expr.IsCHARE() {
		t.Fatalf("result %s is not a CHARE", res.Expr)
	}
	return res.Expr
}

// Example 1 of Section 7: u=abd, v=bcdee, w=cade yields (a+b+c)+ d e*.
func TestCRXSection7Example1(t *testing.T) {
	got := infer(t, sample("abd", "bcdee", "cade"))
	if got.String() != "(a + b + c)+ d e*" {
		t.Errorf("CRX = %q, want %q", got, "(a + b + c)+ d e*")
	}
}

// Examples 2-4 of Section 7: W = {abccde, cccad, bfegg, bfehi} yields
// (a+b+c)+ (d+f) e? g* h? i?.
func TestCRXSection7Examples2to4(t *testing.T) {
	res, err := inferWords(sample("abccde", "cccad", "bfegg", "bfehi"))
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if got, want := res.Expr.String(), "(a + b + c)+ (d + f) e? g* h? i?"; got != want {
		t.Errorf("CRX = %q, want %q", got, want)
	}
	// The merged class [d, f] of Example 4 must be present.
	foundDF := false
	for _, c := range res.Classes {
		if len(c) == 2 && c[0] == "d" && c[1] == "f" {
			foundDF = true
		}
	}
	if !foundDF {
		t.Errorf("classes = %v, missing the merged [d f]", res.Classes)
	}
}

// The non-linear-order example after Theorem 5: W = {abc, ade, abe} yields
// the all-optional chain (the factor order among incomparable classes
// depends on the topological sort; ours emits first-seen symbols first).
func TestCRXNonLinearOrderExample(t *testing.T) {
	got := infer(t, sample("abc", "ade", "abe"))
	if got.String() != "a b? c? d? e?" {
		t.Errorf("CRX = %q, want %q", got, "a b? c? d? e?")
	}
	for _, w := range sample("abc", "ade", "abe") {
		if !automata.ExprMember(got, w) {
			t.Errorf("result rejects sample string %v", w)
		}
	}
}

// Section 7's generalization claim: the O(n) ring sample {a1a2, ..., ana1}
// plus an ε witness suffices for (a1+...+an)*.
func TestCRXLearnsRepeatedDisjunctionFromRingSample(t *testing.T) {
	n := 12
	syms := make([]string, n)
	for i := range syms {
		syms[i] = string(rune('a' + i))
	}
	var ws [][]string
	for i := range syms {
		ws = append(ws, []string{syms[i], syms[(i+1)%n]})
	}
	ws = append(ws, nil) // witness for *
	got := infer(t, ws)
	subs := make([]*regex.Expr, n)
	for i, s := range syms {
		subs[i] = regex.Sym(s)
	}
	want := regex.Star(regex.Union(subs...))
	if !regex.EqualModuloUnionOrder(got, want) {
		t.Errorf("CRX = %s, want %s", got, want)
	}
	// Without the ε witness the quantifier is +.
	got = infer(t, ws[:len(ws)-1])
	if !regex.EqualModuloUnionOrder(got, regex.Plus(regex.Union(subs...))) {
		t.Errorf("CRX without ε = %s, want +", got)
	}
}

func TestCRXQuantifierAssignment(t *testing.T) {
	tests := []struct {
		ws   []string
		want string
	}{
		{[]string{"a", "a"}, "a"},
		{[]string{"a", ""}, "a?"},
		{[]string{"a", "aa"}, "a+"},
		{[]string{"aa", ""}, "a*"},
		{[]string{"ab", "b"}, "a? b"},
		{[]string{"ab", "ba"}, "(a + b)+"}, // cycle: one class, two occurrences
	}
	for _, tc := range tests {
		got := infer(t, sample(tc.ws...))
		if got.String() != tc.want {
			t.Errorf("CRX(%v) = %q, want %q", tc.ws, got, tc.want)
		}
	}
}

func TestCRXEmptyError(t *testing.T) {
	if _, err := inferWords(nil); err == nil {
		t.Fatal("want error on empty sample")
	}
	if _, err := inferWords([][]string{nil}); err == nil {
		t.Fatal("want error on ε-only sample")
	}
}

// Theorem 3: W ⊆ L(rW) always.
func TestCRXContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 300; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(8); j++ {
			n := rng.Intn(9)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w)
		}
		nonEmpty := false
		for _, w := range ws {
			nonEmpty = nonEmpty || len(w) > 0
		}
		if !nonEmpty {
			continue
		}
		res, err := inferWords(ws)
		if err != nil {
			t.Fatalf("Infer(%v): %v", ws, err)
		}
		if !res.Expr.IsCHARE() {
			t.Fatalf("result %s is not a CHARE", res.Expr)
		}
		for _, w := range ws {
			if !automata.ExprMember(res.Expr, w) {
				t.Fatalf("CRX(%v) = %s rejects %v", ws, res.Expr, w)
			}
		}
	}
}

// Theorem 4 (completeness): for each CHARE r there is a sample from which
// CRX infers an expression with L = L(r); the edge-cover sample of the SOA
// of r is such a sample. Theorem 5 strengthens this to syntactic equality
// up to commutativity of +.
func TestCRXCompletenessOnRandomCHAREs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alpha := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < 400; i++ {
		target := regex.Simplify(regextest.RandomCHARE(rng, alpha))
		ws := datagen.EdgeCoverSample(target)
		res, err := inferWords(ws)
		if err != nil {
			t.Fatalf("Infer failed for %s: %v", target, err)
		}
		if !regex.EqualModuloUnionOrder(res.Expr, target) {
			t.Fatalf("CRX(%s) = %s (sample %v)", target, res.Expr, ws)
		}
	}
}

// CRX is a super-approximation of iDTD's target: on arbitrary SOREs it
// still covers the sample (and the whole SORE language when the sample is
// representative).
func TestCRXSuperApproximatesSOREs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 200; i++ {
		target := regextest.RandomSORE(rng, alpha, 3)
		ws := datagen.EdgeCoverSample(target)
		res, err := inferWords(ws)
		if err != nil {
			continue // e.g. SOREs whose language is {ε}
		}
		if !automata.ExprIncludes(res.Expr, target) {
			t.Fatalf("CRX(%s) = %s does not include the target", target, res.Expr)
		}
	}
}

// Incremental recomputation (Section 9): summarizing in parts and merging
// gives exactly the batch result.
func TestCRXIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 100; i++ {
		var ws [][]string
		for j := 0; j < 6; j++ {
			n := 1 + rng.Intn(6)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w)
		}
		batch, err := inferWords(ws)
		if err != nil {
			t.Fatal(err)
		}
		st1, st2 := NewState(), NewState()
		st1.AddSample(smp.FromStrings(ws[:3]))
		st2.AddSample(smp.FromStrings(ws[3:]))
		st1.Merge(st2)
		inc, err := st1.Infer(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !regex.Equal(batch.Expr, inc.Expr) {
			t.Fatalf("batch %s != incremental %s for %v", batch.Expr, inc.Expr, ws)
		}
		if st1.Total() != len(ws) {
			t.Fatalf("merged total = %d", st1.Total())
		}
	}
}

func TestCRXDeterministicFactorOrder(t *testing.T) {
	// Incomparable classes are emitted in first-seen order, so re-running
	// on the same sample is stable.
	ws := sample("xq", "yq", "zq")
	first := infer(t, ws).String()
	for i := 0; i < 5; i++ {
		if got := infer(t, ws).String(); got != first {
			t.Fatalf("order not deterministic: %q vs %q", got, first)
		}
	}
}

func TestProfileCapIsExactForQuantifiers(t *testing.T) {
	// Counts are capped at 2; three or more occurrences must still read as
	// "at least two".
	got := infer(t, sample("aaaa", "a"))
	if got.String() != "a+" {
		t.Errorf("CRX = %q, want a+", got)
	}
}

// TestAddSampleMatchesAddString holds the counted fold to the verbatim one:
// over dedup-heavy, sparse, empty-containing and random samples, both
// build the same summary (symbol order, →W edges, capped occurrence
// profiles with their multiplicities, total) and so infer the same CHARE.
func TestAddSampleMatchesAddString(t *testing.T) {
	samples := [][][]string{
		sample("ab", "abb", "aab", "b"),
		sample("ab", "ab", "ab", "abb", "abb", "b", ""),
		sample("bacacdacde", "cbacdbacde", "abccaadcde"),
		sample("aabb", "aabb", "aabbb"),
		{{"x"}, {"x"}, {"x"}, nil},
		{nil},
		nil,
	}
	rng := rand.New(rand.NewSource(7))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 100; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(12); j++ {
			w := make([]string, rng.Intn(7))
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w, w[:len(w)/2])
		}
		samples = append(samples, ws)
	}
	for i, ws := range samples {
		ref := NewState()
		for _, w := range ws {
			ref.addString(w)
		}
		got := NewState()
		got.AddSample(smp.FromStrings(ws))
		if ref.Total() != got.Total() ||
			!reflect.DeepEqual(ref.tab.Names(), got.tab.Names()) ||
			!reflect.DeepEqual(ref.edges, got.edges) ||
			!reflect.DeepEqual(ref.profiles, got.profiles) {
			t.Fatalf("sample %d %v: counted summary differs from the verbatim one", i, ws)
		}
		want, errRef := ref.Infer(ctx)
		res, errGot := got.Infer(ctx)
		if (errRef == nil) != (errGot == nil) {
			t.Fatalf("sample %d: verbatim err=%v, counted err=%v", i, errRef, errGot)
		}
		if errRef == nil && (want.Expr.String() != res.Expr.String() ||
			!reflect.DeepEqual(want.Classes, res.Classes)) {
			t.Fatalf("sample %d: verbatim %s %v, counted %s %v",
				i, want.Expr, want.Classes, res.Expr, res.Classes)
		}
	}
}
