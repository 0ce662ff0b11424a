// Package crx implements the CRX algorithm (Chain Regular eXpression
// extractor) of Section 7 of the paper. CRX infers CHAREs — concatenations
// of factors (a1+...+ak) with an optional ?, + or * — directly from the
// sample, without the intermediate automaton of iDTD, which gives it the
// strong generalization ability the paper demonstrates on very small
// samples: for (a1+...+an)*, O(n) example 2-grams suffice where iDTD needs
// about n².
//
// The algorithm computes the pre-order a →W b ("a immediately precedes b in
// some string"), contracts its strongly connected components into
// equivalence classes, merges singleton classes with identical neighborhoods
// in the Hasse diagram, linearizes the classes by a topological sort, and
// assigns each class a quantifier from the per-string occurrence statistics
// (Algorithm 3, lines 5-13).
package crx

import (
	"context"
	"errors"
	"sort"
	"strconv"

	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
)

// ErrCycle is reported when the class DAG — acyclic by construction on
// well-formed summaries — contains a cycle, which can only arise from a
// corrupted or adversarial summary state. Callers degrade instead of
// crashing.
var ErrCycle = errors.New("crx: cycle in class DAG")

// Result carries the inferred CHARE and the intermediate structures, which
// the experiments inspect.
type Result struct {
	// Expr is the inferred CHARE with W ⊆ L(Expr) (Theorem 3).
	Expr *regex.Expr
	// Classes are the factor symbol sets in the emitted order.
	Classes [][]string
}

// Infer computes the CHARE from the accumulated summary. It fails with
// gfa.ErrEmpty when the summary holds no symbols at all. The phases of
// class construction — SCC contraction, Hasse-diagram building, singleton
// merging, topological sort — each start with a cancellation checkpoint,
// and the quadratic sort checks once per emitted class.
func (st *State) Infer(ctx context.Context) (*Result, error) {
	syms := st.symbols()
	if len(syms) == 0 {
		return nil, gfa.ErrEmpty
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	classes := st.equivalenceClasses(syms)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := newClassGraph(st, classes)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.mergeSingletons()
	order, err := g.topoSort(ctx, st)
	if err != nil {
		return nil, err
	}
	factors := make([]*regex.Expr, 0, len(order))
	resultClasses := make([][]string, 0, len(order))
	for _, c := range order {
		factors = append(factors, st.factor(g.classes[c]))
		resultClasses = append(resultClasses, g.classes[c])
	}
	return &Result{
		Expr:    regex.Simplify(regex.Concat(factors...)),
		Classes: resultClasses,
	}, nil
}

// equivalenceClasses returns the ≈W classes: the strongly connected
// components of the →W digraph, each as a sorted symbol slice.
func (st *State) equivalenceClasses(syms []string) [][]string {
	// Tarjan's algorithm, iterative over the symbol graph.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		sym   string
		succs []string
		i     int
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{sym: root, succs: st.successors(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{sym: w, succs: st.successors(w)})
				} else if onStack[w] && index[w] < low[f.sym] {
					low[f.sym] = index[w]
				}
				continue
			}
			if low[f.sym] == index[f.sym] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.sym {
						break
					}
				}
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.sym] < low[parent.sym] {
					low[parent.sym] = low[f.sym]
				}
			}
		}
	}
	for _, s := range syms {
		if _, seen := index[s]; !seen {
			visit(s)
		}
	}
	return sccs
}

// factor builds the regular expression factor for one class according to
// lines 5-13 of Algorithm 3.
func (st *State) factor(class []string) *regex.Expr {
	subs := make([]*regex.Expr, len(class))
	for i, s := range class {
		subs[i] = regex.Sym(s)
	}
	base := regex.Union(subs...)
	n0, _, n2 := st.classCounts(class)
	switch {
	case n0 == 0 && n2 == 0:
		// Every string contains exactly one occurrence.
		return base
	case n2 == 0:
		// Every string contains at most one occurrence.
		return regex.Opt(base)
	case n0 == 0:
		// Every string contains at least one, some at least two.
		return regex.Plus(base)
	default:
		return regex.Star(base)
	}
}

// classGraph is the Hasse diagram over the equivalence classes, mutated by
// the singleton-merging step.
type classGraph struct {
	classes [][]string
	pred    []map[int]bool
	succ    []map[int]bool
	alive   []bool
}

func newClassGraph(st *State, classes [][]string) *classGraph {
	classOf := map[string]int{}
	for i, c := range classes {
		for _, s := range c {
			classOf[s] = i
		}
	}
	n := len(classes)
	// Direct edges between distinct classes.
	direct := make([]map[int]bool, n)
	for i := range direct {
		direct[i] = map[int]bool{}
	}
	st.forEachEdge(func(a, b string) {
		ca, cb := classOf[a], classOf[b]
		if ca != cb {
			direct[ca][cb] = true
		}
	})
	// Transitive closure on the DAG of classes, then transitive reduction
	// to obtain the Hasse diagram.
	reach := make([]map[int]bool, n)
	var dfs func(u int) map[int]bool
	dfs = func(u int) map[int]bool {
		if reach[u] != nil {
			return reach[u]
		}
		r := map[int]bool{}
		reach[u] = r
		for v := range direct[u] {
			r[v] = true
			for w := range dfs(v) {
				r[w] = true
			}
		}
		return r
	}
	for u := 0; u < n; u++ {
		dfs(u)
	}
	g := &classGraph{
		classes: classes,
		pred:    make([]map[int]bool, n),
		succ:    make([]map[int]bool, n),
		alive:   make([]bool, n),
	}
	for i := range g.pred {
		g.pred[i] = map[int]bool{}
		g.succ[i] = map[int]bool{}
		g.alive[i] = true
	}
	for u := 0; u < n; u++ {
		for v := range direct[u] {
			// A Hasse edge is a direct edge not implied transitively.
			redundant := false
			for w := range direct[u] {
				if w != v && reach[w][v] {
					redundant = true
					break
				}
			}
			if !redundant {
				g.succ[u][v] = true
				g.pred[v][u] = true
			}
		}
	}
	return g
}

// mergeSingletons repeatedly merges maximal sets of singleton classes with
// identical predecessor and successor sets in the Hasse diagram (Algorithm
// 3, lines 2-3). Merged classes are unions of incomparable singletons, so
// they become disjunction factors like (d + f).
func (g *classGraph) mergeSingletons() {
	for {
		groups := map[string][]int{}
		for i := range g.classes {
			if !g.alive[i] || len(g.classes[i]) != 1 {
				continue
			}
			groups[g.signature(i)] = append(groups[g.signature(i)], i)
		}
		merged := false
		for _, group := range groups {
			if len(group) < 2 {
				continue
			}
			sort.Ints(group)
			g.merge(group)
			merged = true
		}
		if !merged {
			return
		}
	}
}

func (g *classGraph) signature(i int) string {
	ids := func(m map[int]bool) []int {
		out := make([]int, 0, len(m))
		for k := range m {
			if g.alive[k] {
				out = append(out, k)
			}
		}
		sort.Ints(out)
		return out
	}
	sig := "p"
	for _, p := range ids(g.pred[i]) {
		sig += ":" + strconv.Itoa(p)
	}
	sig += "|s"
	for _, s := range ids(g.succ[i]) {
		sig += ":" + strconv.Itoa(s)
	}
	return sig
}

func (g *classGraph) merge(group []int) {
	keep := group[0]
	var union []string
	for _, i := range group {
		union = append(union, g.classes[i]...)
	}
	sort.Strings(union)
	g.classes[keep] = union
	for _, i := range group[1:] {
		g.alive[i] = false
		for p := range g.pred[i] {
			delete(g.succ[p], i)
			if g.alive[p] || p == keep {
				g.succ[p][keep] = true
				g.pred[keep][p] = true
			}
		}
		for s := range g.succ[i] {
			delete(g.pred[s], i)
			if g.alive[s] || s == keep {
				g.pred[s][keep] = true
				g.succ[keep][s] = true
			}
		}
	}
}

// topoSort linearizes the alive classes. Among the available classes the
// one whose earliest-seen symbol came first in the sample stream is
// emitted next, which makes the output order deterministic and natural
// (the paper notes the order of factors depends on the topological sort).
// It fails with ErrCycle when no class is available before all are
// emitted, and checks the context once per emitted class.
func (g *classGraph) topoSort(ctx context.Context, st *State) ([]int, error) {
	indeg := map[int]int{}
	for i := range g.classes {
		if !g.alive[i] {
			continue
		}
		n := 0
		for p := range g.pred[i] {
			if g.alive[p] {
				n++
			}
		}
		indeg[i] = n
	}
	rank := func(i int) int {
		best := int(^uint(0) >> 1)
		for _, s := range g.classes[i] {
			if r, ok := st.rank(s); ok && r < best {
				best = r
			}
		}
		return best
	}
	var order []int
	for len(indeg) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best := -1
		for i := range indeg {
			if indeg[i] != 0 {
				continue
			}
			if best < 0 || rank(i) < rank(best) {
				best = i
			}
		}
		if best < 0 {
			return nil, ErrCycle
		}
		order = append(order, best)
		delete(indeg, best)
		for s := range g.succ[best] {
			if _, ok := indeg[s]; ok {
				indeg[s]--
			}
		}
	}
	return order, nil
}
