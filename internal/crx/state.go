package crx

import (
	"sort"

	"dtdinfer/internal/intern"
	smp "dtdinfer/internal/sample"
)

// State is the incremental summary CRX maintains instead of the raw sample
// (Section 9, incremental computation): the →W edge relation, the order in
// which symbols were first seen (for a deterministic topological sort), and
// a multiset of per-string occurrence profiles with counts capped at two —
// two is all the quantifier assignment distinguishes ("zero, one, or more").
// The summary is quadratic in the alphabet plus one entry per distinct
// profile; merging two summaries is exact, so incremental inference equals
// batch inference.
//
// Symbols are interned into dense IDs assigned in first-seen order, so the
// ID doubles as the first-seen rank. The →W relation is a bitset adjacency
// indexed by ID, and per-string occurrence counting uses generation-stamped
// scratch arrays instead of a fresh map per sequence, making AddSample
// allocation-free once the alphabet and profile set stabilize.
type State struct {
	tab      *intern.Table
	edges    []intern.Bitset // edges[from] = →W successors of from
	profiles map[string]*profile
	total    int

	// Per-string scratch, reset by generation stamping. State is not safe
	// for concurrent use, exactly like the map-based predecessor.
	counts  []uint8  // occurrences of each ID in the current string, capped at 2
	stamp   []uint64 // generation that last touched counts[id]
	gen     uint64
	touched []int32 // IDs seen in the current string, insertion order
	keyBuf  []byte  // reusable profile-key buffer
}

// profile is one distinct per-string occurrence vector: parallel slices of
// symbol IDs (ascending) and their capped counts, plus how many sample
// strings produced exactly this vector.
type profile struct {
	ids    []int32
	counts []uint8
	mult   int
}

// NewState returns an empty summary.
func NewState() *State {
	return &State{
		tab:      intern.NewTable(),
		profiles: map[string]*profile{},
	}
}

// internID interns s and grows the ID-indexed tables to cover the new ID.
func (st *State) internID(s string) int {
	id := st.tab.Intern(s)
	for len(st.counts) <= id {
		st.counts = append(st.counts, 0)
		st.stamp = append(st.stamp, 0)
		st.edges = append(st.edges, nil)
	}
	return id
}

// AddSample folds a counted sample into the summary: each unique sequence
// is processed once, with its multiplicity added to the matching profile.
// The result is identical to folding in the expanded strings one by one —
// quantifier assignment only reads per-string occurrence vectors and their
// multiplicities, both of which the counted path preserves exactly. Symbol
// IDs are remapped from the sample's intern table once per call, so no
// string hashing happens on the per-sequence path.
func (st *State) AddSample(s *smp.Set) {
	remap := make([]int32, s.NumSymbols())
	for i := range remap {
		remap[i] = -1
	}
	s.ForEach(func(w []int32, n int) {
		st.total += n
		st.gen++
		st.touched = st.touched[:0]
		prev := -1
		for _, sid := range w {
			id := int(remap[sid])
			if id < 0 {
				id = st.internID(s.Name(int(sid)))
				remap[sid] = int32(id)
			}
			if st.stamp[id] != st.gen {
				st.stamp[id] = st.gen
				st.counts[id] = 1
				st.touched = append(st.touched, int32(id))
			} else if st.counts[id] < 2 {
				st.counts[id]++
			}
			if prev >= 0 {
				st.edges[prev].Set(id)
			}
			prev = id
		}
		st.bumpProfileCount(n)
	})
}

// bumpProfileCount records the occurrence vector of the sequence just
// folded in, reading counts for the IDs in touched, n times over.
func (st *State) bumpProfileCount(n int) {
	// Insertion sort: strings rarely touch many distinct symbols, and the
	// IDs arrive nearly sorted for samples that reuse a stable alphabet.
	t := st.touched
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j-1] > t[j]; j-- {
			t[j-1], t[j] = t[j], t[j-1]
		}
	}
	st.keyBuf = st.keyBuf[:0]
	for _, id := range t {
		st.keyBuf = append(st.keyBuf,
			byte(id), byte(id>>8), byte(id>>16), byte(id>>24), st.counts[id])
	}
	p := st.profiles[string(st.keyBuf)]
	if p == nil {
		p = &profile{ids: make([]int32, len(t)), counts: make([]uint8, len(t))}
		copy(p.ids, t)
		for i, id := range t {
			p.counts[i] = st.counts[id]
		}
		st.profiles[string(st.keyBuf)] = p
	}
	p.mult += n
}

// Merge folds another summary into st, implementing incremental
// recomputation: summarize only the newly arrived strings and merge.
func (st *State) Merge(other *State) {
	// Preserve first-seen order: iterating other's IDs in ascending order is
	// exactly other's first-seen order, so symbols new to st get ranks after
	// all of st's, in the order other first saw them.
	remap := make([]int32, other.tab.Len())
	for oid := 0; oid < other.tab.Len(); oid++ {
		remap[oid] = int32(st.internID(other.tab.Name(oid)))
	}
	for from, bs := range other.edges {
		nf := int(remap[from])
		bs.ForEach(func(to int) {
			st.edges[nf].Set(int(remap[to]))
		})
	}
	pairs := make([][2]int32, 0, 16) // (new id, count), re-sorted after remap
	for _, p := range other.profiles {
		pairs = pairs[:0]
		for i, oid := range p.ids {
			pairs = append(pairs, [2]int32{remap[oid], int32(p.counts[i])})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
		st.keyBuf = st.keyBuf[:0]
		for _, pr := range pairs {
			id := pr[0]
			st.keyBuf = append(st.keyBuf,
				byte(id), byte(id>>8), byte(id>>16), byte(id>>24), byte(pr[1]))
		}
		q := st.profiles[string(st.keyBuf)]
		if q == nil {
			q = &profile{ids: make([]int32, len(pairs)), counts: make([]uint8, len(pairs))}
			for i, pr := range pairs {
				q.ids[i] = pr[0]
				q.counts[i] = uint8(pr[1])
			}
			st.profiles[string(st.keyBuf)] = q
		}
		q.mult += p.mult
	}
	st.total += other.total
}

// Total returns the number of strings summarized.
func (st *State) Total() int { return st.total }

// rank returns the first-seen rank of a symbol (its interned ID).
func (st *State) rank(s string) (int, bool) { return st.tab.Lookup(s) }

func (st *State) symbols() []string {
	out := make([]string, 0, st.tab.Len())
	for id := 0; id < st.tab.Len(); id++ {
		out = append(out, st.tab.Name(id))
	}
	sort.Strings(out)
	return out
}

func (st *State) successors(s string) []string {
	id, ok := st.tab.Lookup(s)
	if !ok || id >= len(st.edges) {
		return nil
	}
	var out []string
	st.edges[id].ForEach(func(to int) {
		out = append(out, st.tab.Name(to))
	})
	sort.Strings(out)
	return out
}

// forEachEdge calls f for every →W edge, by symbol name.
func (st *State) forEachEdge(f func(a, b string)) {
	for from, bs := range st.edges {
		fa := st.tab.Name(from)
		bs.ForEach(func(to int) {
			f(fa, st.tab.Name(to))
		})
	}
}

// classCounts returns how many sample strings contain zero occurrences of
// symbols from the class (n0), exactly one (n1), and two or more (n2).
func (st *State) classCounts(class []string) (n0, n1, n2 int) {
	mark := make([]bool, st.tab.Len())
	for _, s := range class {
		if id, ok := st.tab.Lookup(s); ok {
			mark[id] = true
		}
	}
	for _, p := range st.profiles {
		total := 0
		for i, id := range p.ids {
			if mark[id] {
				total += int(p.counts[i])
				if total >= 2 {
					break
				}
			}
		}
		switch {
		case total == 0:
			n0 += p.mult
		case total == 1:
			n1 += p.mult
		default:
			n2 += p.mult
		}
	}
	return n0, n1, n2
}
