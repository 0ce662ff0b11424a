package stateelim

import (
	"context"
	"math/rand"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/soa"
)

// ctx is the background context the tests run the engines under.
var ctx = context.Background()

func split(w string) []string {
	out := make([]string, len(w))
	for i, r := range w {
		out[i] = string(r)
	}
	return out
}

// The introduction's headline contrast: on the Figure 1 automaton, state
// elimination produces a huge expression (†) while rewrite produces the
// 12-token SORE (‡) — same language, wildly different size.
func TestStateEliminationBlowUpVsRewrite(t *testing.T) {
	ws := [][]string{split("bacacdacde"), split("cbacdbacde"), split("abccaadcde")}
	a := soa.Infer(ws)
	big, err := FromSOA(ctx, a)
	if err != nil {
		t.Fatalf("FromSOA: %v", err)
	}
	small, err := gfa.Rewrite(ctx, a)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if !automata.ExprEquivalent(big, small) {
		t.Fatalf("state elimination changed the language:\n%s\nvs %s", big, small)
	}
	if big.Tokens() < 5*small.Tokens() {
		t.Errorf("expected massive blow-up: state elim %d tokens vs SORE %d",
			big.Tokens(), small.Tokens())
	}
	t.Logf("state elimination: %d tokens; rewrite: %d tokens", big.Tokens(), small.Tokens())
}

// Soundness on random SOAs: the produced expression denotes exactly L(A).
func TestStateEliminationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 120; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(6); j++ {
			n := 1 + rng.Intn(6)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w)
		}
		a := soa.Infer(ws)
		e, err := FromSOA(ctx, a)
		if err != nil {
			t.Fatalf("FromSOA(%v): %v", ws, err)
		}
		if !automata.Equivalent(a.ToDFA(), automata.FromExpr(e)) {
			t.Fatalf("language differs for %v: %s", ws, e)
		}
	}
}

func TestStateEliminationEpsilon(t *testing.T) {
	a := soa.Infer([][]string{nil, {"a"}})
	e, err := FromSOA(ctx, a)
	if err != nil {
		t.Fatalf("FromSOA: %v", err)
	}
	if !e.Nullable() {
		t.Errorf("result %s must be nullable", e)
	}
	if !automata.ExprMember(e, []string{"a"}) {
		t.Errorf("result %s must accept a", e)
	}
}

func TestStateEliminationEmptyLanguage(t *testing.T) {
	if _, err := FromSOA(ctx, soa.New()); err == nil {
		t.Fatal("want error on empty automaton")
	}
}

func TestStateEliminationOnSOREAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 100; i++ {
		target := regextest.RandomSORE(rng, alpha, 3)
		a := soa.FromExpr(target)
		e, err := FromSOA(ctx, a)
		if err != nil {
			continue // {ε}-only languages are not expressible
		}
		if !automata.Equivalent(a.ToDFA(), automata.FromExpr(e)) {
			t.Fatalf("state elim of SOA(%s) = %s: language differs", target, e)
		}
	}
}

func TestLabelAlgebra(t *testing.T) {
	a := label{e: regex.Sym("a")}
	eps := label{hasEps: true}
	if got := unionLabel(a, eps); !got.hasEps || got.e.Name != "a" {
		t.Errorf("union with ε broken: %+v", got)
	}
	if got := concatLabel(a, eps); got.hasEps || got.e.Name != "a" {
		t.Errorf("concat with ε broken: %+v", got)
	}
	if got := concatLabel(a, label{}); !got.empty() {
		t.Errorf("concat with ∅ must be ∅: %+v", got)
	}
	if got := starLabel(label{}); !got.hasEps || got.e != nil {
		t.Errorf("∅* must be {ε}: %+v", got)
	}
}
