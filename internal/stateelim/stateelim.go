// Package stateelim implements the classical state elimination algorithm
// (Hopcroft & Ullman) that converts an automaton into a regular expression.
// The paper uses it as the negative baseline: applied to the Figure 1
// automaton it produces the page-filling expression (†), against the
// equivalent 9-symbol SORE ((b?(a+c))+d)+e found by rewrite, illustrating
// the Ehrenfeucht–Zeiger exponential lower bound that motivates targeting
// the SORE class instead.
package stateelim

import (
	"context"
	"errors"

	"dtdinfer/internal/budget"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// ErrEmptyLanguage is returned when the automaton accepts no string.
var ErrEmptyLanguage = errors.New("stateelim: automaton accepts no strings")

// label is a GNFA edge label: a regular language given by an optional
// expression plus an optional ε. A nil entry in the edge map means the
// empty language.
type label struct {
	e      *regex.Expr // may be nil (language ∅ or {ε} depending on eps)
	hasEps bool
}

func (l label) empty() bool { return l.e == nil && !l.hasEps }

func unionLabel(a, b label) label {
	out := label{hasEps: a.hasEps || b.hasEps}
	switch {
	case a.e == nil:
		out.e = b.e
	case b.e == nil:
		out.e = a.e
	default:
		out.e = regex.Union(a.e, b.e)
	}
	return out
}

func concatLabel(a, b label) label {
	if a.empty() || b.empty() {
		return label{}
	}
	var parts []*regex.Expr
	if a.e != nil && b.e != nil {
		parts = append(parts, regex.Concat(a.e.Clone(), b.e.Clone()))
	}
	if a.e != nil && b.hasEps {
		parts = append(parts, a.e.Clone())
	}
	if b.e != nil && a.hasEps {
		parts = append(parts, b.e.Clone())
	}
	out := label{hasEps: a.hasEps && b.hasEps}
	for _, p := range parts {
		out = unionLabel(out, label{e: p})
	}
	return out
}

// starLabel returns L* as a label: ε plus L+ when L is non-empty.
func starLabel(a label) label {
	if a.e == nil {
		return label{hasEps: true}
	}
	return label{e: regex.Plus(a.e.Clone()), hasEps: true}
}

// FromSOA runs state elimination on a single occurrence automaton,
// eliminating states in lexicographic symbol order. The output is not
// simplified beyond trivial flattening — the point of the baseline is the
// raw size of the expression the textbook algorithm produces. State
// elimination is the engine most prone to blow-up (its output can be
// exponential in the automaton), so the context's state budget is checked
// up front and every eliminated state, each of which can square the label
// sizes, is a cancellation checkpoint.
func FromSOA(ctx context.Context, a *soa.SOA) (*regex.Expr, error) {
	syms := a.Symbols()
	if err := budget.CheckStates(ctx, len(syms)); err != nil {
		return nil, err
	}
	const src, snk = "⊢", "⊣"
	// edge[from][to] holds the current label.
	edge := map[string]map[string]label{}
	set := func(from, to string, l label) {
		if l.empty() {
			return
		}
		m := edge[from]
		if m == nil {
			m = map[string]label{}
			edge[from] = m
		}
		m[to] = unionLabel(m[to], l)
	}
	for _, e := range a.Edges() {
		from, to := e[0], e[1]
		if to == soa.Sink {
			set(from, snk, label{hasEps: true})
			continue
		}
		f := from
		if from == soa.Source {
			f = src
		}
		set(f, to, label{e: regex.Sym(to)})
	}
	if a.AcceptsEmpty() {
		set(src, snk, label{hasEps: true})
	}
	for _, q := range syms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		loop := starLabel(edge[q][q])
		delete(edge[q], q)
		var ins []string
		for p, m := range edge {
			if p == q {
				continue
			}
			if _, ok := m[q]; ok {
				ins = append(ins, p)
			}
		}
		for _, p := range ins {
			inL := edge[p][q]
			delete(edge[p], q)
			for r, outL := range edge[q] {
				set(p, r, concatLabel(concatLabel(inL, loop), outL))
			}
		}
		delete(edge, q)
	}
	final := edge[src][snk]
	if final.empty() {
		return nil, ErrEmptyLanguage
	}
	if final.e == nil {
		return nil, errors.New("stateelim: language is {ε}, not expressible")
	}
	if final.hasEps {
		return regex.Opt(final.e), nil
	}
	return final.e, nil
}
