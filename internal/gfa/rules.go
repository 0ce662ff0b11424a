package gfa

import (
	"dtdinfer/internal/intern"
	"dtdinfer/internal/regex"
)

// The four rewrite rules of Section 5. Each try function applies the rule
// once if possible (deterministically, scanning nodes in ascending id
// order) and reports whether it fired.

// trySelfLoop applies the self-loop rule: delete an edge (r, r) and relabel
// r by r+.
func (g *GFA) trySelfLoop() bool {
	for _, r := range g.Nodes() {
		if g.HasEdge(r, r) {
			old := g.labels[r]
			g.RemoveEdge(r, r)
			g.labels[r] = regex.Simplify(regex.Plus(g.labels[r]))
			g.tracef("self-loop: %s becomes %s", old, g.labels[r])
			return true
		}
	}
	return false
}

// tryOptional applies the optional rule to the first eligible node r: every
// closure-predecessor r' of r satisfies Succ(r) ⊆ Succ(r'), i.e. everything
// reachable through r from a predecessor is also reachable directly. The
// node is relabeled r? and the bypass edges (r', r”) with r' ∈ Pred(r) and
// r” ∈ Succ(r)\{r} are removed, since the ε-pass through r? now subsumes
// them. Nodes with already-nullable labels are skipped: the rule would not
// make progress.
func (g *GFA) tryOptional() bool {
	cl := g.Closure()
	for _, r := range g.Nodes() {
		if nullableLabel(g.labels[r]) {
			continue
		}
		preds, succs := cl.Pred(r), cl.Succ(r)
		if !hasOther(preds, r) || !hasOther(succs, r) {
			continue
		}
		ok := preds.Until(func(p int) bool {
			return p == r || succs.SubsetOf(cl.Succ(p))
		})
		if !ok {
			continue
		}
		old := g.labels[r]
		g.labels[r] = regex.Simplify(regex.Opt(g.labels[r]))
		g.tracef("optional: %s becomes %s", old, g.labels[r])
		// Remove only bypasses between real predecessors and real successors:
		// each removed edge (p, s) is re-derivable as p → r (ε) → s, so the
		// closure of the GFA is unchanged, exactly as the paper's
		// rule-interference analysis requires. Removing closure-level
		// bypasses instead could delete the edges supporting the closure
		// paths themselves and change the language.
		for _, p := range g.Predecessors(r) {
			if p == r {
				continue
			}
			for _, s := range g.Successors(r) {
				if s != r && g.HasEdge(p, s) {
					g.RemoveEdge(p, s)
				}
			}
		}
		return true
	}
	return false
}

func hasOther(set intern.Bitset, self int) bool {
	for w, word := range set {
		if self>>6 == w {
			word &^= 1 << uint(self&63)
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// tryConcat applies the concatenation rule to a maximal chain r1,...,rn
// (n >= 2): consecutive edges ri → ri+1 where every node besides r1 has
// exactly one incoming edge and every node besides rn has exactly one
// outgoing edge. The chain is replaced by a single node labeled r1···rn;
// an edge rn → r1 becomes a self edge of the new node.
func (g *GFA) tryConcat() bool {
	// A link is an edge u→v between labeled nodes where u has out-degree 1
	// and v has in-degree 1; chains are maximal link paths.
	isLink := func(u, v int) bool {
		return u != v && u != SourceID && u != SinkID && v != SourceID &&
			v != SinkID && g.HasEdge(u, v) && g.OutDegree(u) == 1 && g.InDegree(v) == 1
	}
	for _, u := range g.Nodes() {
		if g.OutDegree(u) != 1 {
			continue
		}
		v := g.Successors(u)[0]
		if !isLink(u, v) {
			continue
		}
		// Extend backward from u and forward from v, guarding against a
		// full cycle (which cannot be reached from the source in practice).
		chain := []int{u, v}
		inChain := map[int]bool{u: true, v: true}
		for {
			first := chain[0]
			if g.InDegree(first) != 1 {
				break
			}
			p := g.Predecessors(first)[0]
			if !isLink(p, first) || inChain[p] {
				break
			}
			chain = append([]int{p}, chain...)
			inChain[p] = true
		}
		for {
			last := chain[len(chain)-1]
			if g.OutDegree(last) != 1 {
				break
			}
			s := g.Successors(last)[0]
			if !isLink(last, s) || inChain[s] {
				break
			}
			chain = append(chain, s)
			inChain[s] = true
		}
		g.mergeChain(chain, inChain)
		return true
	}
	return false
}

func (g *GFA) mergeChain(chain []int, inChain map[int]bool) {
	labels := make([]*regex.Expr, len(chain))
	for i, id := range chain {
		labels[i] = g.labels[id]
	}
	m := g.AddNode(regex.Concat(labels...))
	g.tracef("concatenation: %d states merge into %s", len(chain), g.labels[m])
	first, last := chain[0], chain[len(chain)-1]
	selfLoop := false
	var selfSupport int
	for _, p := range g.Predecessors(first) {
		if p == last {
			selfLoop = true
			selfSupport += g.EdgeSupport(p, first)
			continue
		}
		g.AddEdgeSupport(p, m, g.EdgeSupport(p, first))
	}
	for _, s := range g.Successors(last) {
		if s == first {
			continue // already handled as the self loop
		}
		if inChain[s] {
			continue // the internal link edges disappear with the chain
		}
		g.AddEdgeSupport(m, s, g.EdgeSupport(last, s))
	}
	if selfLoop {
		g.AddEdgeSupport(m, m, selfSupport)
	}
	for _, id := range chain {
		g.RemoveNode(id)
	}
}

// tryDisjunction applies the disjunction rule to the first eligible pair of
// nodes u, v: their closure predecessor and successor sets agree outside
// {u, v}, and internally either there are no edges between them in G at all
// (case i) or every ordered pair, including the self pairs, is an edge of
// the closure G* (case ii). The pair is replaced by a node labeled u + v; in
// case (ii) a self edge is added. Larger disjunctions arise by repeated
// pairwise application — the Union constructor flattens nested disjunctions
// and Simplify absorbs member quantifiers, so the final expression matches
// an n-ary merge.
func (g *GFA) tryDisjunction() bool {
	cl := g.Closure()
	nodes := g.Nodes()
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			if !setEqualMod(cl.Pred(u), cl.Pred(v), u, v) ||
				!setEqualMod(cl.Succ(u), cl.Succ(v), u, v) {
				continue
			}
			realInternal := g.HasEdge(u, u) || g.HasEdge(u, v) ||
				g.HasEdge(v, u) || g.HasEdge(v, v)
			if realInternal {
				// Case (ii): require full closure interconnection.
				su, sv := cl.Succ(u), cl.Succ(v)
				if !(su.Has(u) && su.Has(v) && sv.Has(u) && sv.Has(v)) {
					continue
				}
			}
			g.mergePair(u, v, realInternal)
			return true
		}
	}
	return false
}

// setEqualMod reports whether bitsets a and b agree outside {u, v}.
func setEqualMod(a, b intern.Bitset, u, v int) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for w := 0; w < n; w++ {
		var aw, bw uint64
		if w < len(a) {
			aw = a[w]
		}
		if w < len(b) {
			bw = b[w]
		}
		x := aw ^ bw
		if u>>6 == w {
			x &^= 1 << uint(u&63)
		}
		if v>>6 == w {
			x &^= 1 << uint(v&63)
		}
		if x != 0 {
			return false
		}
	}
	return true
}

func (g *GFA) mergePair(u, v int, selfLoop bool) {
	m := g.AddNode(regex.Union(g.labels[u], g.labels[v]))
	kase := "i"
	if selfLoop {
		kase = "ii"
	}
	g.tracef("disjunction (case %s): %s and %s merge into %s",
		kase, g.labels[u], g.labels[v], g.labels[m])
	var selfSupport int
	for _, old := range []int{u, v} {
		for _, p := range g.Predecessors(old) {
			if p == u || p == v {
				selfSupport += g.EdgeSupport(p, old)
				continue
			}
			g.AddEdgeSupport(p, m, g.EdgeSupport(p, old))
		}
		for _, s := range g.Successors(old) {
			if s == u || s == v {
				continue // counted from the predecessor side
			}
			g.AddEdgeSupport(m, s, g.EdgeSupport(old, s))
		}
	}
	if selfLoop {
		g.AddEdgeSupport(m, m, selfSupport)
	}
	g.RemoveNode(u)
	g.RemoveNode(v)
}
