package dtd

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestMergePreservesMultiplicities: merging staged extractions must add
// counts for shared sequences, not lose or re-count them.
func TestMergePreservesMultiplicities(t *testing.T) {
	a := NewExtraction()
	a.AddSequences("e", [][]string{{"x"}, {"x"}, {"x", "y"}})
	b := NewExtraction()
	b.AddSequences("e", [][]string{{"x"}, {"z"}})
	a.Merge(b)
	s := a.Sequences["e"]
	if s.Total() != 5 || s.Unique() != 3 {
		t.Fatalf("total=%d unique=%d, want 5/3", s.Total(), s.Unique())
	}
	counts := map[string]int{}
	for i := 0; i < s.Unique(); i++ {
		counts[strings.Join(s.SeqStrings(i), " ")] = s.Count(i)
	}
	want := map[string]int{"x": 3, "x y": 1, "z": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

// TestAddSequencesCountsDuplicates: injected duplicate strings must fold
// into multiplicities, visible through Total vs Unique.
func TestAddSequencesCountsDuplicates(t *testing.T) {
	x := NewExtraction()
	for i := 0; i < 100; i++ {
		x.AddSequences("e", [][]string{{"a", "b"}})
	}
	x.AddSequences("e", [][]string{{"b"}})
	s := x.Sequences["e"]
	if s.Total() != 101 || s.Unique() != 2 || s.Count(0) != 100 {
		t.Errorf("total=%d unique=%d count0=%d", s.Total(), s.Unique(), s.Count(0))
	}
}

// TestDuplicateDocumentsFoldIntoCounts: ingesting the same document twice
// must double every multiplicity but add no unique sequences.
func TestDuplicateDocumentsFoldIntoCounts(t *testing.T) {
	doc := `<r><a/><a/><b/></r>`
	x := NewExtraction()
	for i := 0; i < 3; i++ {
		if err := x.AddDocument(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	r := x.Sequences["r"]
	if r.Unique() != 1 || r.Total() != 3 || r.Count(0) != 3 {
		t.Errorf("r: unique=%d total=%d", r.Unique(), r.Total())
	}
	if got := strings.Join(r.SeqStrings(0), " "); got != "a a b" {
		t.Errorf("sequence = %q", got)
	}
}

// TestParallelCountedIdenticalToSequential runs duplicate-heavy documents
// through the parallel path and demands the counted extractions be deeply
// equal to sequential ingestion — the counted analogue of the shard-commit
// determinism guarantee (run under -race in CI).
func TestParallelCountedIdenticalToSequential(t *testing.T) {
	docs := make([]string, 40)
	for i := range docs {
		// Three document shapes, so unique sequences repeat across shards
		// and every Merge exercises the count-addition path.
		switch i % 3 {
		case 0:
			docs[i] = `<r><a/><a/><b/></r>`
		case 1:
			docs[i] = `<r><a/><b/></r>`
		default:
			docs[i] = `<r><b/><c/></r>`
		}
	}
	seq := NewExtraction()
	if _, err := seq.AddDocsParallelContext(context.Background(), docList(docs), 1, nil, FailFast); err != nil {
		t.Fatal(err)
	}
	if got := seq.Sequences["r"].Unique(); got != 3 {
		t.Fatalf("unique r-sequences = %d, want 3", got)
	}
	for _, workers := range []int{2, 3, 8} {
		par := NewExtraction()
		if _, err := par.AddDocsParallelContext(context.Background(), docList(docs), workers, nil, FailFast); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: counted extraction differs from sequential:\n%s\nvs\n%s",
				workers, snapshot(seq), snapshot(par))
		}
	}
}
