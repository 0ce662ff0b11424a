// Package xtract re-creates the XTRACT system of Garofalakis et al. (the
// paper's main experimental comparator) from its published description:
//
//  1. Generalization: each distinct input string spawns candidate regular
//     expressions by replacing runs of a symbol with s+ and adjacent
//     repetitions of a block with (block)+.
//  2. Factoring: common prefixes of the chosen candidates are factored to
//     share structure, as XTRACT does with logic-optimization techniques.
//  3. MDL choice: a greedy facility-location pass (the exact subproblem is
//     NP-hard) picks the candidate subset minimizing description length =
//     size of the chosen expressions plus the per-string encoding costs.
//
// The resulting inference exhibits the behaviour the paper reports: on
// small clean samples it can find the exact target, but on real-world data
// it emits disjunction-heavy expressions whose size grows with the number
// of distinct strings, and its cost explodes on large samples (the paper
// caps XTRACT at 300–1000 strings; MaxStrings mirrors that limit).
package xtract

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
)

// ErrTooLarge reports a sample beyond MaxStrings distinct strings,
// mirroring the blow-up that makes the original system crash on samples
// over about a thousand strings.
var ErrTooLarge = errors.New("xtract: sample exceeds MaxStrings distinct strings")

// Options configure the reconstruction.
type Options struct {
	// MaxStrings bounds the number of distinct input strings; 0 means 1000,
	// the paper's reported limit for the original system.
	MaxStrings int
	// MaxBlock bounds the block length considered by the repetition
	// detector; 0 means 4.
	MaxBlock int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxStrings == 0 {
		out.MaxStrings = 1000
	}
	if out.MaxBlock == 0 {
		out.MaxBlock = 4
	}
	return out
}

// Infer runs the XTRACT pipeline on a counted sample and returns the
// inferred expression. XTRACT operates on distinct strings only
// (multiplicities never enter its MDL objective), so the counted
// representation hands it exactly the deduplication it needs. The MDL
// candidate enumeration — the system's known blow-up, quadratic in
// candidates times strings — checks for cancellation per candidate and per
// greedy round.
func Infer(ctx context.Context, s *smp.Set, opts *Options) (*regex.Expr, error) {
	distinct := s.UniqueStrings()
	sort.Slice(distinct, func(i, j int) bool { return key(distinct[i]) < key(distinct[j]) })
	return inferDistinct(ctx, distinct, opts)
}

// inferDistinct runs the pipeline over deduplicated, key-sorted strings.
func inferDistinct(ctx context.Context, distinct [][]string, opts *Options) (*regex.Expr, error) {
	o := opts.withDefaults()
	if len(distinct) == 0 {
		return nil, errors.New("xtract: empty sample")
	}
	hasEmpty := false
	var strs [][]string
	for _, w := range distinct {
		if len(w) == 0 {
			hasEmpty = true
		} else {
			strs = append(strs, w)
		}
	}
	if len(strs) > o.MaxStrings {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(strs), o.MaxStrings)
	}
	if len(strs) == 0 {
		return nil, errors.New("xtract: only empty strings in sample")
	}
	candidates := generalize(strs, o.MaxBlock)
	chosen, err := mdlChoose(ctx, strs, candidates)
	if err != nil {
		return nil, err
	}
	e := factor(chosen)
	if hasEmpty {
		e = regex.Opt(e)
	}
	return e, nil
}

func key(w []string) string {
	k := ""
	for _, s := range w {
		k += s + "\x00"
	}
	return k
}

// generalize produces the candidate set: every distinct string verbatim
// plus its repetition generalizations.
func generalize(strs [][]string, maxBlock int) []*regex.Expr {
	seen := map[string]bool{}
	var out []*regex.Expr
	add := func(e *regex.Expr) {
		k := e.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	for _, w := range strs {
		add(literal(w))
		add(generalizeRuns(w, maxBlock))
	}
	return out
}

func literal(w []string) *regex.Expr {
	subs := make([]*regex.Expr, len(w))
	for i, s := range w {
		subs[i] = regex.Sym(s)
	}
	return regex.Concat(subs...)
}

// generalizeRuns replaces adjacent repetitions of a block of up to maxBlock
// symbols with (block)+, preferring longer blocks, scanning left to right.
func generalizeRuns(w []string, maxBlock int) *regex.Expr {
	var parts []*regex.Expr
	i := 0
	for i < len(w) {
		bestLen, bestReps := 0, 0
		for bl := maxBlock; bl >= 1; bl-- {
			if i+2*bl > len(w) {
				continue
			}
			reps := 1
			for i+(reps+1)*bl <= len(w) && blockEqual(w, i, i+reps*bl, bl) {
				reps++
			}
			if reps >= 2 {
				bestLen, bestReps = bl, reps
				break
			}
		}
		if bestLen == 0 {
			parts = append(parts, regex.Sym(w[i]))
			i++
			continue
		}
		parts = append(parts, regex.Plus(literal(w[i:i+bestLen])))
		i += bestLen * bestReps
	}
	return regex.Concat(parts...)
}

func blockEqual(w []string, i, j, l int) bool {
	for k := 0; k < l; k++ {
		if w[i+k] != w[j+k] {
			return false
		}
	}
	return true
}

// mdlChoose greedily selects a candidate subset covering every string,
// minimizing expression size plus encoding cost (facility location). The
// context is checked once per candidate during coverage evaluation and
// once per greedy round, the two loops whose product makes XTRACT's cost
// explode on large samples.
func mdlChoose(ctx context.Context, strs [][]string, candidates []*regex.Expr) ([]*regex.Expr, error) {
	type cand struct {
		e       *regex.Expr
		nfa     *automata.NFA
		size    int
		covers  []int
		encCost []int
	}
	cands := make([]*cand, 0, len(candidates))
	for _, e := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := &cand{e: e, nfa: automata.Glushkov(e), size: e.Tokens()}
		for i, w := range strs {
			if c.nfa.Member(w) {
				c.covers = append(c.covers, i)
				c.encCost = append(c.encCost, encodingCost(e, w))
			}
		}
		if len(c.covers) > 0 {
			cands = append(cands, c)
		}
	}
	uncovered := map[int]bool{}
	for i := range strs {
		uncovered[i] = true
	}
	var chosen []*regex.Expr
	for len(uncovered) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestIdx, bestRatio := -1, 0.0
		for ci, c := range cands {
			gain := 0
			cost := c.size
			for k, i := range c.covers {
				if uncovered[i] {
					gain++
					cost += c.encCost[k]
				}
			}
			if gain == 0 {
				continue
			}
			ratio := float64(cost) / float64(gain)
			if bestIdx < 0 || ratio < bestRatio {
				bestIdx, bestRatio = ci, ratio
			}
		}
		if bestIdx < 0 {
			break // cannot happen: literals cover everything
		}
		c := cands[bestIdx]
		chosen = append(chosen, c.e)
		for _, i := range c.covers {
			delete(uncovered, i)
		}
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].String() < chosen[j].String() })
	return chosen, nil
}

// encodingCost approximates the MDL cost of deriving w from e: one unit per
// repetition consumed beyond the first in each + block. Literal candidates
// encode their own string for free but pay their full size; generalized
// candidates are smaller but charge per repetition.
func encodingCost(e *regex.Expr, w []string) int {
	reps := 0
	e.Walk(func(n *regex.Expr) {
		if n.Op == regex.OpPlus {
			reps++
		}
	})
	if reps == 0 {
		return 0
	}
	// Upper-bound the repetitions by the length difference between the
	// string and the candidate's symbol count.
	d := len(w) - len(symbolsOf(e))
	if d < 0 {
		d = 0
	}
	return d + reps
}

func symbolsOf(e *regex.Expr) []string {
	var out []string
	e.Walk(func(n *regex.Expr) {
		if n.Op == regex.OpSymbol {
			out = append(out, n.Name)
		}
	})
	return out
}

// factor unions the chosen candidates and factors shared prefixes, the
// final assembly step of XTRACT. The output stays disjunction-heavy by
// construction, which is the shortcoming the paper demonstrates.
func factor(chosen []*regex.Expr) *regex.Expr {
	seqs := make([][]*regex.Expr, len(chosen))
	for i, e := range chosen {
		if e.Op == regex.OpConcat {
			seqs[i] = e.Subs
		} else {
			seqs[i] = []*regex.Expr{e}
		}
	}
	return factorSeqs(seqs)
}

func factorSeqs(seqs [][]*regex.Expr) *regex.Expr {
	if len(seqs) == 1 {
		return regex.Concat(seqs[0]...)
	}
	// Group by first element.
	groups := map[string][][]*regex.Expr{}
	var orderKeys []string
	hasEmpty := false
	for _, s := range seqs {
		if len(s) == 0 {
			hasEmpty = true
			continue
		}
		k := s[0].String()
		if _, ok := groups[k]; !ok {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Strings(orderKeys)
	var alts []*regex.Expr
	for _, k := range orderKeys {
		group := groups[k]
		head := group[0][0]
		if len(group) == 1 {
			alts = append(alts, regex.Concat(group[0]...))
			continue
		}
		tails := make([][]*regex.Expr, len(group))
		allEmpty := true
		for i, s := range group {
			tails[i] = s[1:]
			if len(tails[i]) > 0 {
				allEmpty = false
			}
		}
		if allEmpty {
			alts = append(alts, head)
			continue
		}
		// factorSeqs marks the remainder optional itself when some tail
		// was empty.
		rest := factorSeqs(tails)
		alts = append(alts, regex.Concat(head, rest))
	}
	e := regex.Union(alts...)
	if hasEmpty {
		e = regex.Opt(e)
	}
	return e
}
