package gfa

import (
	"context"
	"errors"
	"fmt"

	"dtdinfer/internal/budget"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// ErrNoSORE is reported by Rewrite when the input automaton has no
// equivalent SORE (for example because the sample was not representative,
// leaving edges missing — the situation iDTD repairs).
var ErrNoSORE = errors.New("gfa: automaton is not equivalent to any SORE")

// ErrEmpty is reported when the automaton has no states: the empty language
// and the language {ε} have no SORE (ε is not expressible).
var ErrEmpty = errors.New("gfa: automaton has no symbols")

// Saturate applies rewrite rules until none is applicable, trying them in
// the fixed order optional, self-loop, concatenation, disjunction (the
// result does not depend on this order for automata equivalent to a SORE —
// Claim 2 of the paper — but a fixed order makes runs reproducible). A
// cancellation checkpoint precedes every rule application — the rewrite
// hot loop can run thousands of steps on large automata, and each step is
// cheap enough that a per-step ctx.Err() is lost in the noise.
func (g *GFA) Saturate(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case g.tryOptional():
		case g.trySelfLoop():
		case g.tryConcat():
		case g.tryDisjunction():
		default:
			return nil
		}
	}
}

// Rewrite implements Algorithm 1: it transforms a single occurrence
// automaton into an equivalent SORE (L(result) = L(A), including ε), or
// fails with ErrNoSORE when no equivalent SORE exists. The result is
// normalized to use the Kleene star for (r+)? forms, as the paper's
// post-processing step prescribes. Without repair rules this is the
// "rewrite" engine of Figure 4. It honors the state budget the context
// carries and checks for cancellation inside the rewrite loop.
func Rewrite(ctx context.Context, a *soa.SOA) (*regex.Expr, error) {
	if len(a.Symbols()) == 0 {
		return nil, ErrEmpty
	}
	if err := budget.CheckStates(ctx, len(a.Symbols())); err != nil {
		return nil, err
	}
	g := FromSOA(a)
	if err := g.Saturate(ctx); err != nil {
		return nil, err
	}
	return g.Result()
}

// Result extracts the regular expression of a saturated GFA. Besides the
// strictly final shape it accepts the one remaining configuration with an
// unconsumed ε edge — a single node r with edges source→r, r→sink and
// source→sink — which denotes r? exactly.
func (g *GFA) Result() (*regex.Expr, error) {
	if g.IsFinal() {
		return regex.Simplify(g.FinalExpr()), nil
	}
	if len(g.labels) == 1 && g.HasEdge(SourceID, SinkID) {
		var id int
		for n := range g.labels {
			id = n
		}
		if len(g.succ[SourceID]) == 2 && g.succ[SourceID][id] &&
			len(g.pred[SinkID]) == 2 && g.pred[SinkID][id] &&
			len(g.succ[id]) == 1 && g.succ[id][SinkID] &&
			len(g.pred[id]) == 1 && g.pred[id][SourceID] {
			return regex.Simplify(regex.Opt(g.labels[id])), nil
		}
	}
	return nil, fmt.Errorf("%w (stuck with %d states)", ErrNoSORE, g.NumNodes())
}
