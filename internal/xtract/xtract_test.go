package xtract

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/crx"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
)

// ctx is the background context the tests run the engines under.
var ctx = context.Background()

// inferWords runs XTRACT on the counted sample of a verbatim sample, the
// path every production caller takes.
func inferWords(ws [][]string, opts *Options) (*regex.Expr, error) {
	return Infer(ctx, smp.FromStrings(ws), opts)
}

// crxWords runs CRX over the counted summary of a verbatim sample.
func crxWords(ws [][]string) (*crx.Result, error) {
	st := crx.NewState()
	st.AddSample(smp.FromStrings(ws))
	return st.Infer(ctx)
}

// dedup is the verbatim reference for the counted sample's distinct
// strings: first occurrences, sorted by key.
func dedup(sample [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, w := range sample {
		k := key(w)
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// TestInferMatchesDedupReference holds the counted entry point to the
// verbatim pipeline it replaced: deduplicating the expanded strings
// itself and running the same MDL pipeline must give the same expression
// (or the same failure) on dedup-heavy, empty-containing and random
// samples.
func TestInferMatchesDedupReference(t *testing.T) {
	samples := [][][]string{
		sample("ab", "abb", "aab", "b"),
		sample("ab", "ab", "ab", "abb", "abb", "b", ""),
		sample("bacacdacde", "cbacdbacde", "abccaadcde"),
		sample("aabb", "aabb", "aabbb"),
		{{"x"}, {"x"}, {"x"}, nil},
		{nil},
		nil,
	}
	rng := rand.New(rand.NewSource(53))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 60; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(10); j++ {
			w := make([]string, rng.Intn(6))
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w, w)
		}
		samples = append(samples, ws)
	}
	for i, ws := range samples {
		for _, opts := range []*Options{nil, {MaxStrings: 3}} {
			want, errRef := inferDistinct(ctx, dedup(ws), opts)
			got, errGot := inferWords(ws, opts)
			if (errRef == nil) != (errGot == nil) {
				t.Fatalf("sample %d %v: verbatim err=%v, counted err=%v", i, ws, errRef, errGot)
			}
			if errRef != nil {
				if errRef.Error() != errGot.Error() {
					t.Fatalf("sample %d: verbatim err %q, counted err %q", i, errRef, errGot)
				}
				continue
			}
			if want.String() != got.String() {
				t.Fatalf("sample %d %v: verbatim %s, counted %s", i, ws, want, got)
			}
		}
	}
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

func TestXtractCoversSample(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 150; i++ {
		var ws [][]string
		nonEmpty := false
		for j := 0; j < 1+rng.Intn(8); j++ {
			n := rng.Intn(8)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			nonEmpty = nonEmpty || n > 0
			ws = append(ws, w)
		}
		if !nonEmpty {
			continue
		}
		e, err := inferWords(ws, nil)
		if err != nil {
			t.Fatalf("Infer(%v): %v", ws, err)
		}
		for _, w := range ws {
			if !automata.ExprMember(e, w) {
				t.Fatalf("xtract %s rejects sample string %v", e, w)
			}
		}
	}
}

func TestXtractRunGeneralization(t *testing.T) {
	// aaab generalizes the run of a's.
	e, err := inferWords(sample("aaab", "ab", "aab"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !automata.ExprMember(e, split("aaaaab")) {
		t.Errorf("xtract %s should generalize runs beyond the sample", e)
	}
}

func TestXtractBlockRepetition(t *testing.T) {
	// (ab)(ab)(ab) generalizes to (a b)+ somewhere in the candidate set.
	e, err := inferWords(sample("ababab", "ab"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !automata.ExprMember(e, split("abababab")) {
		t.Errorf("xtract %s should generalize block repetitions", e)
	}
}

// The paper's core observation: xtract output grows with the number of
// distinct strings (disjunction-heavy), while CRX stays linear in the
// alphabet.
func TestXtractGrowsWithSampleWhereCRXStaysConcise(t *testing.T) {
	target := regex.MustParse("a (b + c + d + e)* f")
	s := datagen.NewSampler(52)
	small := datagen.RepresentativeSample(s, target, 30)
	large := datagen.RepresentativeSample(s, target, 300)
	eSmall, err := inferWords(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	eLarge, err := inferWords(large, nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := crxWords(large)
	if err != nil {
		t.Fatal(err)
	}
	if eLarge.Tokens() <= eSmall.Tokens() {
		t.Logf("note: xtract large sample tokens %d <= small %d", eLarge.Tokens(), eSmall.Tokens())
	}
	if eLarge.Tokens() < 3*cr.Expr.Tokens() {
		t.Errorf("xtract (%d tokens) should be much larger than CRX (%d tokens): %s",
			eLarge.Tokens(), cr.Expr.Tokens(), eLarge)
	}
	if cr.Expr.String() != "a (b + c + d + e)* f" {
		t.Errorf("CRX = %s", cr.Expr)
	}
}

func TestXtractMaxStrings(t *testing.T) {
	var ws [][]string
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			ws = append(ws, []string{"a", string(rune('b' + i%20)), string(rune('b' + j%20))})
		}
	}
	_, err := inferWords(ws, &Options{MaxStrings: 100})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestXtractExactOnCleanPattern(t *testing.T) {
	// On small clean repetitive data, xtract can find a compact pattern.
	e, err := inferWords(sample("ab", "aab", "aaab"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"ab", "aab", "aaab", "aaaab"} {
		if !automata.ExprMember(e, split(w)) {
			t.Errorf("xtract %s rejects %s", e, w)
		}
	}
}

func TestXtractEmptyHandling(t *testing.T) {
	if _, err := inferWords(nil, nil); err == nil {
		t.Fatal("want error on empty sample")
	}
	e, err := inferWords([][]string{nil, {"a"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Nullable() {
		t.Errorf("result %s must be nullable", e)
	}
}

func TestFactorSharedPrefix(t *testing.T) {
	e := factor([]*regex.Expr{
		regex.MustParse("a b c"),
		regex.MustParse("a b d"),
		regex.MustParse("a b"),
	})
	// One shared "a b" prefix with an optional (c + d) tail.
	if !automata.ExprEquivalent(e, regex.MustParse("a b (c + d)?")) {
		t.Errorf("factor = %s", e)
	}
	if e.SymbolOccurrences()["a"] != 1 {
		t.Errorf("prefix not factored: %s", e)
	}
}
