// Package numpred implements the numerical-predicates extension of
// Section 9: SOREs and CHAREs can only count "zero, one or more", so a
// post-processing step rewrites r+ into r{m,} or r{m} based on the exact
// occurrence counts in the sample — the paper's example being aabb+
// refined to a{2} b{2,} (rendered in XML Schema as minOccurs/maxOccurs).
package numpred

import (
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// RefineSample rewrites the repeatable factors of e whose operand is a
// single symbol or a disjunction of symbols, using run statistics from
// the counted sample:
//
//   - x+ becomes x{m} when every maximal run of x-symbols in the sample has
//     length exactly m >= 2, and x{m,} when the shortest run has length
//     m >= 2;
//   - x* and x? are left alone: "absent or at least m" is not expressible
//     as a single {m,n} bound.
//
// Other subexpressions are preserved. The result denotes a subset of L(e)
// that still contains every sample string. The minimal and maximal run
// lengths are scanned over each unique sequence once — multiplicities
// cannot change a min or max, so the result is the one the expanded
// strings give, at a fraction of the scanning cost.
func RefineSample(e *regex.Expr, s *sample.Set) *regex.Expr {
	if e.Op == regex.OpPlus {
		if class, ok := symbolClass(e.Sub()); ok {
			min, max, seen := runStats(class, s)
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
		c.Subs[i] = RefineSample(sub, s)
	}
	return c
}

// symbolClass returns the symbol set of a plain symbol or a disjunction of
// symbols.
func symbolClass(e *regex.Expr) (map[string]bool, bool) {
	switch e.Op {
	case regex.OpSymbol:
		return map[string]bool{e.Name: true}, true
	case regex.OpUnion:
		out := map[string]bool{}
		for _, s := range e.Subs {
			if s.Op != regex.OpSymbol {
				return nil, false
			}
			out[s.Name] = true
		}
		return out, true
	}
	return nil, false
}

// runTracker accumulates min/max over maximal run lengths.
type runTracker struct {
	min, max int
	seen     bool
	run      int
}

func (t *runTracker) step(inClass bool) {
	if inClass {
		t.run++
		return
	}
	t.flush()
}

func (t *runTracker) flush() {
	if t.run == 0 {
		return
	}
	if !t.seen || t.run < t.min {
		t.min = t.run
	}
	if t.run > t.max {
		t.max = t.run
	}
	t.seen = true
	t.run = 0
}

// runStats scans each unique sequence of a counted sample once for
// maximal runs of symbols from the class, resolving the class to interned
// IDs up front, and returns the shortest and longest run lengths, plus
// whether any run was seen at all.
func runStats(class map[string]bool, s *sample.Set) (min, max int, seen bool) {
	inClass := make([]bool, s.NumSymbols())
	for sym := range class {
		if id, ok := s.Lookup(sym); ok {
			inClass[id] = true
		}
	}
	var t runTracker
	s.ForEach(func(w []int32, _ int) {
		for _, id := range w {
			t.step(inClass[id])
		}
		t.flush()
	})
	return t.min, t.max, t.seen
}
