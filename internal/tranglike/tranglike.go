// Package tranglike re-creates the inference strategy of James Clark's
// Trang as the paper describes it in Section 8.1: build the 2T-INF
// automaton, eliminate cycles by merging all states of a strongly connected
// component into a repeated disjunction, and serialize the resulting DAG
// into a regular expression. Trang itself ships no paper or manual; this
// reconstruction reproduces the behaviour the paper reports — output
// identical to CRX on all their corpora except expressions like
// example1 = a1+ + (a2?a3+), where the disjoint branches of the DAG yield a
// top-level disjunction that CRX cannot produce.
package tranglike

import (
	"context"
	"errors"
	"sort"
	"strconv"

	"dtdinfer/internal/budget"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// ErrCycle is reported when the contracted DAG — acyclic by construction
// on well-formed automata — contains a cycle, which can only arise from a
// corrupted or adversarial automaton. Callers degrade instead of crashing.
var ErrCycle = errors.New("tranglike: cycle in contracted DAG")

// FromSOA converts a 2T-INF automaton into a regular expression: SCC
// contraction, merging of equal-context nodes into disjunctions, branch
// decomposition at the source, and topological serialization with ? marks
// on skippable nodes. It honors the state budget the context carries and
// checks for cancellation during serialization.
func FromSOA(ctx context.Context, a *soa.SOA) (*regex.Expr, error) {
	syms := a.Symbols()
	if len(syms) == 0 {
		return nil, gfa.ErrEmpty
	}
	if err := budget.CheckStates(ctx, len(syms)); err != nil {
		return nil, err
	}
	d := buildDAG(a)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mergeEqualContexts()
	e, err := d.serialize(ctx)
	if err != nil {
		return nil, err
	}
	if a.AcceptsEmpty() && !e.Nullable() {
		e = regex.Opt(e)
	}
	return regex.Simplify(e), nil
}

// node is a contracted DAG node: a set of symbols with a flag for internal
// repetition (the SCC had more than one state or a self loop).
type node struct {
	syms     []string
	repeated bool
	alive    bool
}

func (n *node) expr() *regex.Expr {
	subs := make([]*regex.Expr, len(n.syms))
	for i, s := range n.syms {
		subs[i] = regex.Sym(s)
	}
	e := regex.Union(subs...)
	if n.repeated {
		e = regex.Plus(e)
	}
	return e
}

// dag is the SCC-contracted automaton. Index -1 is the source, -2 the sink.
type dag struct {
	nodes []*node
	succ  []map[int]bool
	pred  []map[int]bool
	// initial/final mark edges from the source / to the sink.
	initial map[int]bool
	final   map[int]bool
}

func buildDAG(a *soa.SOA) *dag {
	syms := a.Symbols()
	sccs := stronglyConnected(a, syms)
	classOf := map[string]int{}
	d := &dag{initial: map[int]bool{}, final: map[int]bool{}}
	for i, scc := range sccs {
		rep := len(scc) > 1
		if len(scc) == 1 && a.HasEdge(scc[0], scc[0]) {
			rep = true
		}
		sort.Strings(scc)
		d.nodes = append(d.nodes, &node{syms: scc, repeated: rep, alive: true})
		for _, s := range scc {
			classOf[s] = i
		}
	}
	d.succ = make([]map[int]bool, len(d.nodes))
	d.pred = make([]map[int]bool, len(d.nodes))
	for i := range d.nodes {
		d.succ[i] = map[int]bool{}
		d.pred[i] = map[int]bool{}
	}
	for _, e := range a.Edges() {
		from, to := e[0], e[1]
		switch {
		case from == soa.Source && to == soa.Sink:
			// ε, handled by the caller via AcceptsEmpty.
		case from == soa.Source:
			d.initial[classOf[to]] = true
		case to == soa.Sink:
			d.final[classOf[from]] = true
		default:
			cf, ct := classOf[from], classOf[to]
			if cf != ct {
				d.succ[cf][ct] = true
				d.pred[ct][cf] = true
			}
		}
	}
	return d
}

func stronglyConnected(a *soa.SOA, syms []string) [][]string {
	// Kosaraju: forward order, then reverse assignment.
	visited := map[string]bool{}
	var order []string
	var dfs1 func(s string)
	dfs1 = func(s string) {
		visited[s] = true
		for _, t := range a.Successors(s) {
			if t != soa.Sink && !visited[t] {
				dfs1(t)
			}
		}
		order = append(order, s)
	}
	for _, s := range syms {
		if !visited[s] {
			dfs1(s)
		}
	}
	assigned := map[string]bool{}
	var sccs [][]string
	var dfs2 func(s string, scc *[]string)
	dfs2 = func(s string, scc *[]string) {
		assigned[s] = true
		*scc = append(*scc, s)
		for _, t := range a.Predecessors(s) {
			if t != soa.Source && !assigned[t] {
				dfs2(t, scc)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		if !assigned[order[i]] {
			var scc []string
			dfs2(order[i], &scc)
			sccs = append(sccs, scc)
		}
	}
	return sccs
}

// mergeEqualContexts merges non-repeated singleton-style nodes with equal
// predecessor/successor context (including the initial/final marks) into a
// single disjunction node, mirroring CRX's singleton merging so that the
// output matches CRX on chain-shaped data, as the paper observed of Trang.
func (d *dag) mergeEqualContexts() {
	for {
		groups := map[string][]int{}
		for i, n := range d.nodes {
			if !n.alive || n.repeated || len(n.syms) != 1 {
				continue
			}
			sig := d.signature(i)
			groups[sig] = append(groups[sig], i)
		}
		merged := false
		var sigs []string
		for sig, g := range groups {
			if len(g) >= 2 {
				sigs = append(sigs, sig)
			}
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			group := groups[sig]
			sort.Ints(group)
			d.merge(group)
			merged = true
		}
		if !merged {
			return
		}
	}
}

func (d *dag) signature(i int) string {
	sig := "i"
	if d.initial[i] {
		sig += "1"
	}
	sig += "f"
	if d.final[i] {
		sig += "1"
	}
	ids := func(m map[int]bool) []int {
		var out []int
		for k := range m {
			if d.nodes[k].alive {
				out = append(out, k)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, p := range ids(d.pred[i]) {
		sig += " p" + strconv.Itoa(p)
	}
	for _, s := range ids(d.succ[i]) {
		sig += " s" + strconv.Itoa(s)
	}
	return sig
}

func (d *dag) merge(group []int) {
	keep := group[0]
	for _, i := range group[1:] {
		d.nodes[keep].syms = append(d.nodes[keep].syms, d.nodes[i].syms...)
		d.nodes[i].alive = false
		for p := range d.pred[i] {
			delete(d.succ[p], i)
			if p != keep {
				d.succ[p][keep] = true
				d.pred[keep][p] = true
			}
		}
		for s := range d.succ[i] {
			delete(d.pred[s], i)
			if s != keep {
				d.pred[s][keep] = true
				d.succ[keep][s] = true
			}
		}
		delete(d.initial, i)
		delete(d.final, i)
	}
	sort.Strings(d.nodes[keep].syms)
}

// serialize converts the DAG into an expression: first decompose into
// branches whose node sets are disjoint (yielding a top-level disjunction,
// as Trang does on example1), then linearize each branch topologically,
// marking nodes that some accepted path skips with ?.
func (d *dag) serialize(ctx context.Context) (*regex.Expr, error) {
	comps := d.components()
	var branches []*regex.Expr
	for _, comp := range comps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := d.serializeBranch(comp)
		if err != nil {
			return nil, err
		}
		branches = append(branches, b)
	}
	return regex.Union(branches...), nil
}

// components groups alive nodes into weakly connected components, each a
// branch of the top-level disjunction.
func (d *dag) components() [][]int {
	seen := map[int]bool{}
	var comps [][]int
	for i, n := range d.nodes {
		if !n.alive || seen[i] {
			continue
		}
		var comp []int
		queue := []int{i}
		seen[i] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for v := range d.succ[u] {
				if d.nodes[v].alive && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
			for v := range d.pred[u] {
				if d.nodes[v].alive && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

func (d *dag) serializeBranch(comp []int) (*regex.Expr, error) {
	inComp := map[int]bool{}
	for _, i := range comp {
		inComp[i] = true
	}
	order, err := d.topo(comp)
	if err != nil {
		return nil, err
	}
	var factors []*regex.Expr
	for _, i := range order {
		e := d.nodes[i].expr()
		if !d.mandatory(i, inComp) {
			e = regex.Opt(e)
		}
		factors = append(factors, e)
	}
	return regex.Concat(factors...), nil
}

// topo linearizes one branch; it fails with ErrCycle instead of looping
// or crashing when the contracted DAG is not actually acyclic.
func (d *dag) topo(comp []int) ([]int, error) {
	indeg := map[int]int{}
	for _, i := range comp {
		n := 0
		for p := range d.pred[i] {
			if d.nodes[p].alive {
				n++
			}
		}
		indeg[i] = n
	}
	var order []int
	for len(indeg) > 0 {
		best := -1
		for _, i := range comp {
			if deg, ok := indeg[i]; ok && deg == 0 && (best < 0 || i < best) {
				best = i
			}
		}
		if best < 0 {
			return nil, ErrCycle
		}
		order = append(order, best)
		delete(indeg, best)
		for s := range d.succ[best] {
			if _, ok := indeg[s]; ok {
				indeg[s]--
			}
		}
	}
	return order, nil
}

// mandatory reports whether every accepted path through the branch visits
// node i: removing i must disconnect all initial nodes from all final nodes
// of the branch (a node that is itself initial and final counts as a path).
func (d *dag) mandatory(i int, inComp map[int]bool) bool {
	for j := range inComp {
		if j == i {
			continue
		}
		if d.initial[j] && d.reachesFinal(j, i, inComp) {
			return false
		}
	}
	return true
}

// reachesFinal reports whether a final node is reachable from start without
// passing through the banned node.
func (d *dag) reachesFinal(start, banned int, inComp map[int]bool) bool {
	seen := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if d.final[u] {
			return true
		}
		for v := range d.succ[u] {
			if v != banned && inComp[v] && d.nodes[v].alive && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}
