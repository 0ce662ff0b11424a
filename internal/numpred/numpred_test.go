package numpred

import (
	"math/rand"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

func split(ws ...string) [][]string {
	out := make([][]string, len(ws))
	for i, w := range ws {
		for _, r := range w {
			out[i] = append(out[i], string(r))
		}
	}
	return out
}

// The paper's Section 9 example: strings of the shape aab+ refine to
// a{2} b{2,}.
func TestRefinePaperExample(t *testing.T) {
	e := regex.MustParse("a+ b+")
	ws := split("aabb", "aabbb", "aabbbb")
	got := RefineSample(e, sample.FromStrings(ws))
	if got.String() != "a{2} b{2,}" {
		t.Errorf("Refine = %q, want %q", got, "a{2} b{2,}")
	}
}

func TestRefineKeepsSingleRuns(t *testing.T) {
	e := regex.MustParse("a+ b")
	got := RefineSample(e, sample.FromStrings(split("ab", "aab")))
	if got.String() != "a+ b" {
		t.Errorf("Refine = %q, want unchanged", got)
	}
}

func TestRefineDisjunctionClass(t *testing.T) {
	e := regex.MustParse("(a + b)+ c")
	got := RefineSample(e, sample.FromStrings(split("abc", "bac", "aabc")))
	if got.String() != "(a + b){2,} c" {
		t.Errorf("Refine = %q, want (a + b){2,} c", got)
	}
}

func TestRefineLeavesStarAndOpt(t *testing.T) {
	e := regex.MustParse("a* b?")
	got := RefineSample(e, sample.FromStrings(split("aa", "b", "aab")))
	if got.String() != "a* b?" {
		t.Errorf("Refine = %q, want unchanged", got)
	}
}

func TestRefineSkipsComplexOperands(t *testing.T) {
	e := regex.MustParse("(a b)+")
	got := RefineSample(e, sample.FromStrings(split("abab")))
	if got.String() != "(a b)+" {
		t.Errorf("Refine = %q, want unchanged", got)
	}
}

func TestRefineResultCoversSample(t *testing.T) {
	e := regex.MustParse("a+ (b + c)+ d?")
	ws := split("aabbc", "aaabcbd", "aacc")
	got := RefineSample(e, sample.FromStrings(ws))
	for _, w := range ws {
		if !automata.ExprMember(regex.ExpandRepeats(got), w) {
			t.Errorf("refined %s rejects sample %v", got, w)
		}
	}
	// And the refinement is a restriction of the original language.
	if !automata.ExprIncludes(e, regex.ExpandRepeats(got)) {
		t.Errorf("refined %s is not a subset of %s", got, e)
	}
}

func TestRunStats(t *testing.T) {
	min, max, seen := runStats(map[string]bool{"a": true}, sample.FromStrings(split("aaba", "xx")))
	if !seen || min != 1 || max != 2 {
		t.Errorf("runStats = %d %d %v", min, max, seen)
	}
	_, _, seen = runStats(map[string]bool{"q": true}, sample.FromStrings(split("ab")))
	if seen {
		t.Error("q never occurs")
	}
}

// scanRuns is the verbatim reference for runStats: it scans every
// expanded string, duplicates included.
func scanRuns(class map[string]bool, ws [][]string) (min, max int, seen bool) {
	var t runTracker
	for _, w := range ws {
		for _, s := range w {
			t.step(class[s])
		}
		t.flush()
	}
	return t.min, t.max, t.seen
}

// refineWords is the verbatim reference for RefineSample: the same
// rewrite, with run statistics from scanRuns.
func refineWords(e *regex.Expr, ws [][]string) *regex.Expr {
	if e.Op == regex.OpPlus {
		if class, ok := symbolClass(e.Sub()); ok {
			min, max, seen := scanRuns(class, ws)
			switch {
			case !seen || min < 2:
				return e
			case min == max:
				return regex.Repeat(e.Sub(), min, min)
			default:
				return regex.Repeat(e.Sub(), min, regex.Unbounded)
			}
		}
	}
	if e.Subs == nil {
		return e
	}
	c := &regex.Expr{Op: e.Op, Name: e.Name, Min: e.Min, Max: e.Max}
	c.Subs = make([]*regex.Expr, len(e.Subs))
	for i, sub := range e.Subs {
		c.Subs[i] = refineWords(sub, ws)
	}
	return c
}

// TestRefineSampleMatchesRefine holds the counted refinement to the
// verbatim one: scanning unique sequences once must give the bounds that
// scanning every expanded string gives, on dedup-heavy and random
// samples under expressions with symbol, disjunction and nested factors.
func TestRefineSampleMatchesRefine(t *testing.T) {
	exprs := []*regex.Expr{
		regex.MustParse("a+ b+"),
		regex.MustParse("(a + b)+ c?"),
		regex.MustParse("(a+ b)+ (c + d)+"),
		regex.MustParse("a* (b + c + d)+ a?"),
	}
	samples := [][][]string{
		split("aabb", "aabb", "aabbb"),
		split("ab", "ab", "ab", "abb", "abb", "b", ""),
		split("aab", "aab", "aabcc", "aaabdd"),
		{{"x"}, {"x"}, nil},
	}
	rng := rand.New(rand.NewSource(9))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 100; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(8); j++ {
			w := make([]string, rng.Intn(9))
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w, w)
		}
		samples = append(samples, ws)
	}
	for i, ws := range samples {
		for _, e := range exprs {
			want := refineWords(e, ws)
			got := RefineSample(e, sample.FromStrings(ws))
			if want.String() != got.String() {
				t.Errorf("sample %d, %s: verbatim %s, counted %s", i, e, want, got)
			}
		}
	}
}
