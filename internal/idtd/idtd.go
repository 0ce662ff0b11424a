// Package idtd implements the iDTD algorithm of Section 6 of the paper:
// 2T-INF automaton inference followed by rewrite, with repair rules that
// add a minimal set of edges to the automaton whenever rewrite gets stuck,
// so that a SORE describing a (as small as possible) superset of the sample
// language is always produced.
//
// The two repair rules are enable-disjunction, which equalizes the
// predecessor and successor sets of a candidate pair of states so the
// disjunction rule can merge them, and enable-optional, which adds the
// bypass edges around a state so the optional rule applies. Both carry the
// fuzziness parameter k; following Algorithm 2, k escalates when no repair
// applies at the current level. The paper's implementation fixes k = 2 and
// restricts enable-disjunction to pairs; this implementation does the same
// by default but keeps escalating k when stuck, which (together with a
// universal-disjunction fallback) makes inference total.
package idtd

import (
	"context"

	"dtdinfer/internal/budget"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// RepairPolicy selects how a repair candidate is chosen when rewrite is
// stuck. The choice is an implementation freedom the paper leaves open
// ("apply one repair rule"); the policies exist for the ablation study in
// the benchmark harness.
type RepairPolicy int

const (
	// PolicyBalanced (the default) repairs mutually interconnected
	// disjunction pairs first — the repeated-disjunction signature of
	// Figure 2 — and otherwise picks the cheaper of a similarity
	// disjunction and an enable-optional plan, preferring optional on
	// ties to preserve order information. This reproduces the paper's
	// reported results on both Figure 2 and Table 2.
	PolicyBalanced RepairPolicy = iota
	// PolicyDisjunctionFirst always prefers enable-disjunction over
	// enable-optional, the literal reading of "Rule 1 and 2 are tried in
	// this order".
	PolicyDisjunctionFirst
	// PolicyOptionalFirst always prefers enable-optional.
	PolicyOptionalFirst
)

// Options configure iDTD.
type Options struct {
	// K is the initial fuzziness of the repair rules. The paper uses 2.
	K int
	// Policy selects the repair-candidate policy; see RepairPolicy.
	Policy RepairPolicy
	// MaxK bounds the escalation of k; 0 means the number of automaton
	// states, which in practice always suffices before the fallback.
	MaxK int
	// MaxRepairs bounds the total number of repair applications before the
	// universal fallback; 0 means 4·n² for an n-state automaton.
	MaxRepairs int
	// NoiseThreshold, when positive, enables the noise-aware variant of
	// Section 9: whenever rewrite is stuck, an edge whose support is at
	// most the threshold is dropped (in increasing support order) before
	// repairs are considered.
	NoiseThreshold int
	// Trace records every rewrite-rule application into Result.Trace,
	// reproducing derivations like the paper's Figure 3.
	Trace bool
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.K <= 0 {
		out.K = 2
	}
	return out
}

// Result carries the inferred SORE together with diagnostics about how much
// repairing was needed.
type Result struct {
	// Expr is the inferred SORE, with L(SOA) ⊆ L(Expr) (Theorem 2).
	Expr *regex.Expr
	// Repairs is the number of repair-rule applications.
	Repairs int
	// MaxKUsed is the largest fuzziness k that was needed.
	MaxKUsed int
	// Fallback reports that the universal disjunction fallback fired; on
	// the paper's corpora this never happens with the default options.
	Fallback bool
	// DroppedEdges counts edges removed by the noise-aware variant.
	DroppedEdges int
	// Trace holds the rewrite-rule applications when Options.Trace is set.
	Trace []string
}

// FromSOA runs iDTD (Algorithm 2) on a 2T-INF automaton, rewriting it to
// a SORE and repairing as needed. Multiplicities the automaton absorbed
// flow into its support counts, so the noise threshold of Options sees
// exactly the occurrence statistics of the sample. It fails only on an
// empty alphabet (no non-empty strings in the sample). The automaton is
// rejected up front when it exceeds the context's state budget, and every
// repair-search iteration (the algorithm's only unbounded-feeling loop —
// each iteration is polynomial but the repair escalation can run for
// many) is a cancellation checkpoint.
func FromSOA(ctx context.Context, a *soa.SOA, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	if len(a.Symbols()) == 0 {
		return nil, gfa.ErrEmpty
	}
	syms := a.Symbols()
	n := len(syms)
	if err := budget.CheckStates(ctx, n); err != nil {
		return nil, err
	}
	if o.MaxK == 0 {
		o.MaxK = n + 2
	}
	if o.MaxRepairs == 0 {
		o.MaxRepairs = 4*n*n + 16
	}
	g := gfa.FromSOA(a)
	if o.Trace {
		g.EnableTrace()
	}
	res := &Result{}
	k := o.K
	res.MaxKUsed = k
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := g.Saturate(ctx); err != nil {
			return nil, err
		}
		if r, err := g.Result(); err == nil {
			res.Expr = r
			res.Trace = g.Trace()
			return res, nil
		}
		if o.NoiseThreshold > 0 && dropWeakestEdge(g, o.NoiseThreshold) {
			res.DroppedEdges++
			continue
		}
		if res.Repairs < o.MaxRepairs && repairOnce(g, k, o.Policy) {
			res.Repairs++
			continue
		}
		if res.Repairs < o.MaxRepairs && k < o.MaxK {
			k++
			res.MaxKUsed = k
			continue
		}
		// Universal fallback: the disjunction of all remaining symbols,
		// repeated. This is a SORE superset of any language over the
		// alphabet (ε is preserved by the source→sink edge if present).
		res.Fallback = true
		res.Expr = universalSORE(a)
		return res, nil
	}
}

func universalSORE(a *soa.SOA) *regex.Expr {
	syms := a.Symbols()
	subs := make([]*regex.Expr, len(syms))
	for i, s := range syms {
		subs[i] = regex.Sym(s)
	}
	e := regex.Plus(regex.Union(subs...))
	if a.AcceptsEmpty() {
		return regex.Simplify(regex.Opt(e))
	}
	return regex.Simplify(e)
}

// dropWeakestEdge removes the lowest-support edge not exceeding the
// threshold, implementing the Section 9 noise strategy of advancing rewrite
// by discarding weakly-supported transitions. Nodes left unreachable or
// dead are pruned. Returns false when no edge qualifies.
func dropWeakestEdge(g *gfa.GFA, threshold int) bool {
	best := [2]int{-1, -1}
	bestSupport := threshold + 1
	for _, e := range g.Edges() {
		s := g.EdgeSupport(e[0], e[1])
		if s > 0 && s < bestSupport {
			bestSupport = s
			best = e
		}
	}
	if best[0] < 0 {
		return false
	}
	g.RemoveEdge(best[0], best[1])
	pruneDeadNodes(g)
	return true
}

func pruneDeadNodes(g *gfa.GFA) {
	for {
		removed := false
		for _, id := range g.Nodes() {
			if g.InDegree(id) == 0 || g.OutDegree(id) == 0 {
				g.RemoveNode(id)
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}
