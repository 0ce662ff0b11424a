package dtd

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// capDocs produces a corpus that pushes the per-element caps. Every
// document carries 200 attribute values seen nowhere else, and every
// even document then adds the shared value "A": a stage unit that starts
// at an odd document fills the distinct-value cap before it reaches its
// first "A", so a unit that capped its own values would drop an
// occurrence of a value the corpus already keeps. Every document also
// carries five distinct text samples for <t>, so the text-sample cap
// falls inside a batch, part-way through a destination's samples.
func capDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		b.WriteString("<r>")
		for j := 0; j < 200; j++ {
			fmt.Fprintf(&b, `<e a="d%dv%d"/>`, i, j)
		}
		if i%2 == 0 {
			b.WriteString(`<e a="A"/>`)
		}
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "<t>d%dt%d</t>", i, j)
		}
		b.WriteString("</r>")
		docs[i] = b.String()
	}
	return docs
}

// TestEveryWorkerCountMatchesReference holds the one commit path to an
// independent reference: the encoding/xml loop of reference_test.go,
// ingesting one document at a time. The one-worker batch, the same batch
// split into many tiny flush units, and the four-worker pipeline all
// stage into units folded by commitShard, so comparing them with each
// other only compares the fold with itself; each must equal the
// reference instead, in both read shapes, in the canonical snapshot
// bytes.
// The split runs ingest the corpus as three consecutive batches, so later
// batches stage against a destination that already holds text samples
// and attribute values.
func TestEveryWorkerCountMatchesReference(t *testing.T) {
	corpora := map[string][]string{
		"gen11": genDocs(11, 150),
		"gen31": genDocs(31, 150),
		"caps":  capDocs(40),
	}
	runs := []struct {
		name       string
		workers    int
		flushBytes int
		batches    int
	}{
		{"w1", 1, 0, 1},
		{"w1-flush64", 1, 64, 1},
		{"w4", 4, 0, 1},
		{"w1-split", 1, 0, 3},
		{"w4-split", 4, 0, 3},
	}
	for cname, docs := range corpora {
		ref := NewExtraction()
		for _, d := range docs {
			if _, err := refIngest(context.Background(), ref, strings.NewReader(d), nil); err != nil {
				t.Fatalf("%s: reference rejected a document: %v", cname, err)
			}
		}
		want := snapshotBytes(t, ref)
		for _, shape := range readShapes {
			for _, run := range runs {
				t.Run(fmt.Sprintf("%s/%s/%s", cname, shape.name, run.name), func(t *testing.T) {
					if run.flushBytes > 0 {
						withFlushBytes(t, run.flushBytes)
					}
					x := NewExtraction()
					all := shape.docs(docs)
					for b := 0; b < run.batches; b++ {
						part := all[b*len(all)/run.batches : (b+1)*len(all)/run.batches]
						if _, err := x.AddDocsParallelContext(context.Background(), part, run.workers, nil, FailFast); err != nil {
							t.Fatal(err)
						}
					}
					if got := snapshotBytes(t, x); !bytes.Equal(got, want) {
						t.Errorf("snapshot differs from the reference:\n  got  %s\n  want %s", snapshot(x), snapshot(ref))
					}
				})
			}
		}
	}
}

// TestMergeDeterministicAtAttValueCap merges the same pair of
// extractions repeatedly with the union past the attribute-value cap:
// every result must be the same snapshot, keeping the lexically first of
// the merged-in extraction's new values.
func TestMergeDeterministicAtAttValueCap(t *testing.T) {
	doc := func(prefix string, n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<e a="%s%03d"/>`, prefix, i)
		}
		b.WriteString("</r>")
		return b.String()
	}
	big, small := doc("b", 250), doc("s", 40)
	var first []byte
	for i := 0; i < 20; i++ {
		x, o := NewExtraction(), NewExtraction()
		if err := x.AddDocument(strings.NewReader(big)); err != nil {
			t.Fatal(err)
		}
		if err := o.AddDocument(strings.NewReader(small)); err != nil {
			t.Fatal(err)
		}
		x.Merge(o)
		got := snapshotBytes(t, x)
		if i == 0 {
			first = got
			st := x.Attributes["e"]["a"]
			if !st.overflow || len(st.values) != maxAttValues {
				t.Fatalf("overflow=%v with %d values, want the cap reached", st.overflow, len(st.values))
			}
			for j := 0; j < maxAttValues-250; j++ {
				if v := fmt.Sprintf("s%03d", j); st.values[v] != 1 {
					t.Errorf("lexically first new value %q not kept", v)
				}
			}
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("merge %d: snapshot differs from the first merge", i)
		}
	}
}

// snapshotBytes is x's canonical binary snapshot.
func snapshotBytes(t *testing.T, x *Extraction) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := x.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
