package tranglike

import (
	"context"
	"math/rand"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/crx"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	smp "dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
)

// ctx is the background context the tests run the engines under.
var ctx = context.Background()

// inferWords runs the Trang-like pipeline over the 2T-INF automaton of a
// verbatim sample.
func inferWords(ws [][]string) (*regex.Expr, error) {
	return FromSOA(ctx, soa.Infer(ws))
}

// crxWords runs CRX over the counted summary of a verbatim sample.
func crxWords(ws [][]string) (*crx.Result, error) {
	st := crx.NewState()
	st.AddSample(smp.FromStrings(ws))
	return st.Infer(ctx)
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

// Section 8.1: on example1-style data, Trang can produce the top-level
// disjunction a1+ + (a2? a3+) that CRX cannot (CRX yields a1* a2? a3*).
func TestTrangTopLevelDisjunctionOnExample1(t *testing.T) {
	target := regex.MustParse("a1+ + (a2? a3+)")
	ws := datagen.EdgeCoverSample(target)
	got, err := inferWords(ws)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !automata.ExprEquivalent(got, target) {
		t.Errorf("Trang-like = %s, want ≡ %s", got, target)
	}
	cr, err := crxWords(ws)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Expr.String() != "a1* a2? a3*" {
		t.Errorf("CRX = %s, want a1* a2? a3*", cr.Expr)
	}
}

// The paper reports Trang's output equals CRX's on the chain-shaped
// corpora. Check a spread of CHAREs via representative samples.
func TestTrangMatchesCRXOnCHAREs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alpha := []string{"a", "b", "c", "d", "e", "f"}
	same := 0
	runs := 200
	for i := 0; i < runs; i++ {
		target := regex.Simplify(regextest.RandomCHARE(rng, alpha))
		ws := datagen.EdgeCoverSample(target)
		tr, err := inferWords(ws)
		if err != nil {
			t.Fatalf("Infer failed for %s: %v", target, err)
		}
		cr, err := crxWords(ws)
		if err != nil {
			t.Fatal(err)
		}
		if regex.EqualModuloUnionOrder(tr, cr.Expr) {
			same++
		}
		// Even when syntax differs, the sample must be covered.
		for _, w := range ws {
			if !automata.ExprMember(tr, w) {
				t.Fatalf("Trang-like result %s rejects %v (target %s)", tr, w, target)
			}
		}
	}
	if same < runs*3/4 {
		t.Errorf("Trang-like should match CRX on most CHAREs: %d/%d", same, runs)
	}
}

func TestTrangContainmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 250; i++ {
		var ws [][]string
		nonEmpty := false
		for j := 0; j < 1+rng.Intn(6); j++ {
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
		got, err := inferWords(ws)
		if err != nil {
			t.Fatalf("Infer(%v): %v", ws, err)
		}
		for _, w := range ws {
			if !automata.ExprMember(got, w) {
				t.Fatalf("Trang-like %s rejects sample %v", got, w)
			}
		}
	}
}

func TestTrangSCCContraction(t *testing.T) {
	// A cycle a<->b collapses into (a+b)+.
	got, err := inferWords(sample("ab", "ba", "abab"))
	if err != nil {
		t.Fatal(err)
	}
	if !regex.EqualModuloUnionOrder(got, regex.MustParse("(a + b)+")) {
		t.Errorf("Trang-like = %s, want (a+b)+", got)
	}
}

func TestTrangEmptyError(t *testing.T) {
	if _, err := inferWords(nil); err == nil {
		t.Fatal("want error")
	}
}

func TestTrangEpsilon(t *testing.T) {
	got, err := inferWords([][]string{nil, {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Nullable() {
		t.Errorf("result %s must be nullable", got)
	}
}
