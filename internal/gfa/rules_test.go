package gfa

import (
	"testing"

	"dtdinfer/internal/regex"
)

// buildGFA constructs a GFA from labels and an edge list over label
// indices; -1 is the source, -2 the sink.
func buildGFA(t *testing.T, labels []string, edges [][2]int) (*GFA, []int) {
	t.Helper()
	g := New()
	ids := make([]int, len(labels))
	for i, l := range labels {
		ids[i] = g.AddNode(regex.MustParse(l))
	}
	resolve := func(i int) int {
		switch i {
		case -1:
			return SourceID
		case -2:
			return SinkID
		default:
			return ids[i]
		}
	}
	for _, e := range edges {
		g.AddEdge(resolve(e[0]), resolve(e[1]))
	}
	return g, ids
}

func TestTrySelfLoopRule(t *testing.T) {
	g, ids := buildGFA(t, []string{"a"}, [][2]int{{-1, 0}, {0, 0}, {0, -2}})
	if !g.trySelfLoop() {
		t.Fatal("self-loop should fire")
	}
	if g.HasEdge(ids[0], ids[0]) {
		t.Error("self edge must be deleted")
	}
	if got := g.Label(ids[0]).String(); got != "a+" {
		t.Errorf("label = %q, want a+", got)
	}
	if g.trySelfLoop() {
		t.Error("rule must not fire twice")
	}
}

func TestTryOptionalRule(t *testing.T) {
	// a -> b -> c with bypass a -> c: b becomes optional, bypass removed.
	g, ids := buildGFA(t, []string{"a", "b", "c"},
		[][2]int{{-1, 0}, {0, 1}, {1, 2}, {0, 2}, {2, -2}})
	if !g.tryOptional() {
		t.Fatal("optional should fire on b")
	}
	if got := g.Label(ids[1]).String(); got != "b?" {
		t.Errorf("label = %q, want b?", got)
	}
	if g.HasEdge(ids[0], ids[2]) {
		t.Error("bypass a->c must be removed")
	}
	if !g.HasEdge(ids[0], ids[1]) || !g.HasEdge(ids[1], ids[2]) {
		t.Error("chain edges must survive")
	}
}

func TestTryOptionalRequiresAllPredecessorsCovered(t *testing.T) {
	// d -> b without d -> c: optional on b must NOT fire.
	g, _ := buildGFA(t, []string{"a", "b", "c", "d"},
		[][2]int{{-1, 0}, {-1, 3}, {0, 1}, {3, 1}, {1, 2}, {0, 2}, {2, -2}})
	if g.tryOptional() {
		t.Fatal("optional must not fire when a predecessor lacks the bypass")
	}
}

func TestTryOptionalSkipsNullableLabels(t *testing.T) {
	g, _ := buildGFA(t, []string{"a", "b?", "c"},
		[][2]int{{-1, 0}, {0, 1}, {1, 2}, {0, 2}, {2, -2}})
	// b? is already nullable: no progress possible on it; a and c do not
	// qualify either.
	if g.tryOptional() {
		t.Fatal("optional must skip nullable labels")
	}
}

func TestTryConcatRule(t *testing.T) {
	g, ids := buildGFA(t, []string{"a", "b", "c"},
		[][2]int{{-1, 0}, {0, 1}, {1, 2}, {2, -2}})
	if !g.tryConcat() {
		t.Fatal("concat should fire")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("expected one merged node, got %d", g.NumNodes())
	}
	for _, id := range g.Nodes() {
		if got := g.Label(id).String(); got != "a b c" {
			t.Errorf("label = %q, want a b c", got)
		}
	}
	_ = ids
}

func TestTryConcatRespectsDegrees(t *testing.T) {
	// b has two incoming edges: the chain a->b cannot merge.
	g, _ := buildGFA(t, []string{"a", "b", "c"},
		[][2]int{{-1, 0}, {-1, 2}, {0, 1}, {2, 1}, {1, -2}})
	if g.tryConcat() {
		t.Fatal("concat must not fire when the target has in-degree 2")
	}
}

func TestTryConcatBackEdgeBecomesSelfLoop(t *testing.T) {
	// a -> b with b -> a: merged node gets a self edge ((ab)+ after
	// self-loop).
	g, _ := buildGFA(t, []string{"a", "b"},
		[][2]int{{-1, 0}, {0, 1}, {1, 0}, {1, -2}})
	if !g.tryConcat() {
		t.Fatal("concat should fire")
	}
	var m int
	for _, id := range g.Nodes() {
		m = id
	}
	if !g.HasEdge(m, m) {
		t.Error("back edge must become a self edge")
	}
	if !g.trySelfLoop() {
		t.Fatal("self-loop should now fire")
	}
	if got := g.Label(m).String(); got != "(a b)+" {
		t.Errorf("label = %q, want (a b)+", got)
	}
}

func TestTryDisjunctionCaseI(t *testing.T) {
	// a and b in parallel between src and sink: plain merge, no self edge.
	g, _ := buildGFA(t, []string{"a", "b"},
		[][2]int{{-1, 0}, {-1, 1}, {0, -2}, {1, -2}})
	if !g.tryDisjunction() {
		t.Fatal("disjunction should fire")
	}
	var m int
	for _, id := range g.Nodes() {
		m = id
	}
	if g.HasEdge(m, m) {
		t.Error("case (i) must not add a self edge")
	}
	if got := g.Label(m).String(); got != "a + b" {
		t.Errorf("label = %q, want a + b", got)
	}
}

func TestTryDisjunctionCaseII(t *testing.T) {
	// Fully interconnected a, b (incl. self loops): merge with self edge.
	g, _ := buildGFA(t, []string{"a", "b"},
		[][2]int{{-1, 0}, {-1, 1}, {0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, -2}, {1, -2}})
	if !g.tryDisjunction() {
		t.Fatal("disjunction should fire")
	}
	var m int
	for _, id := range g.Nodes() {
		m = id
	}
	if !g.HasEdge(m, m) {
		t.Error("case (ii) must add a self edge")
	}
}

func TestTryDisjunctionRejectsPartialInterconnection(t *testing.T) {
	// a -> b but not b -> a and no self loops: neither case applies.
	g, _ := buildGFA(t, []string{"a", "b"},
		[][2]int{{-1, 0}, {-1, 1}, {0, 1}, {0, -2}, {1, -2}})
	if g.tryDisjunction() {
		t.Fatal("partial interconnection must not merge")
	}
}

func TestTryDisjunctionRejectsDifferentContexts(t *testing.T) {
	g, _ := buildGFA(t, []string{"a", "b", "c"},
		[][2]int{{-1, 0}, {-1, 1}, {0, -2}, {1, 2}, {2, -2}})
	if g.tryDisjunction() {
		t.Fatal("different successor sets must not merge")
	}
}

func TestDisjunctionWithClosureOnlySelfEdge(t *testing.T) {
	// a+ (repeatable, closure self edge) in parallel with c: case (i)
	// because no real internal edges exist; the + stays inside the union.
	g, _ := buildGFA(t, []string{"a+", "c"},
		[][2]int{{-1, 0}, {-1, 1}, {0, -2}, {1, -2}})
	if !g.tryDisjunction() {
		t.Fatal("disjunction should fire")
	}
	var m int
	for _, id := range g.Nodes() {
		m = id
	}
	if g.HasEdge(m, m) {
		t.Error("closure-only internal edges are case (i): no real self edge")
	}
	if got := g.Label(m).String(); got != "a+ + c" {
		t.Errorf("label = %q, want a+ + c", got)
	}
}
