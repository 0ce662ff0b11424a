package dtd

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// genDocs produces a deterministic synthetic corpus exercising sequences,
// text content, attributes and the text-sample cap (n > maxTextSamples).
func genDocs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		fmt.Fprintf(&b, `<root id="%d">`, i%7)
		for j := 0; j < 1+rng.Intn(6); j++ {
			el := names[rng.Intn(len(names))]
			fmt.Fprintf(&b, "<%s>", el)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "text-%d", rng.Intn(4))
			} else {
				fmt.Fprintf(&b, `<%s kind="k%d"/>`, names[rng.Intn(len(names))], rng.Intn(5))
			}
			fmt.Fprintf(&b, "</%s>", el)
		}
		b.WriteString("</root>")
		docs[i] = b.String()
	}
	return docs
}

func docList(docs []string) []Doc {
	out := make([]Doc, len(docs))
	for i, d := range docs {
		out[i] = Doc{Label: fmt.Sprintf("doc-%d", i), R: strings.NewReader(d)}
	}
	return out
}

// readShape is how a test hands its documents to the reader. The two
// shapes keep the subtest names of the two decoders they replaced
// ("fast", "std"); both run the one tokenizer. "fast" hands each document
// over in whole reads, "std" one byte per Read, so a property tested over
// both also holds when every token straddles a read boundary.
type readShape struct {
	name string
	wrap func(io.Reader) io.Reader
}

var readShapes = []readShape{
	{"fast", func(r io.Reader) io.Reader { return r }},
	{"std", iotest.OneByteReader},
}

// docs labels docs like docList and delivers them in this shape.
func (s readShape) docs(docs []string) []Doc {
	out := docList(docs)
	for i := range out {
		out[i].R = s.wrap(out[i].R)
	}
	return out
}

// reportString renders a report including every error, for byte-level
// determinism comparison. The pipeline stage timings are stripped: they
// are wall-clock measurements, deliberately outside the deterministic
// contract the counters and error lists keep.
func reportString(r *IngestReport) string {
	c := *r
	c.Pipeline = nil
	return fmt.Sprintf("%s | errors=%d", c.String(), len(r.Errors))
}

func TestParallelExtractionIdenticalToSequential(t *testing.T) {
	docs := genDocs(11, 150)
	for _, shape := range readShapes {
		t.Run(shape.name, func(t *testing.T) {
			seq := NewExtraction()
			seqReport, err := seq.AddDocsParallelContext(context.Background(), shape.docs(docs), 1, nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				par := NewExtraction()
				parReport, err := par.AddDocsParallelContext(context.Background(), shape.docs(docs), workers, nil, SkipAndRecord)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d: extraction differs from sequential", workers)
				}
				if got, want := reportString(parReport), reportString(seqReport); got != want {
					t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
				}
			}
		})
	}
}

func TestParallelSkipAndRecordMatchesSequentialOnErrors(t *testing.T) {
	docs := genDocs(23, 80)
	for _, i := range []int{3, 17, 41, 79} {
		docs[i] = "<unclosed>"
	}
	seq := NewExtraction()
	seqReport, _ := seq.AddDocsParallelContext(context.Background(), docList(docs), 1, nil, SkipAndRecord)
	if seqReport.Rejected != 4 {
		t.Fatalf("sequential rejected %d, want 4", seqReport.Rejected)
	}
	for _, workers := range []int{2, 8} {
		par := NewExtraction()
		parReport, err := par.AddDocsParallelContext(context.Background(), docList(docs), workers, nil, SkipAndRecord)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: extraction differs from sequential", workers)
		}
		if got, want := reportString(parReport), reportString(seqReport); got != want {
			t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
		}
		wantIdx := []int{3, 17, 41, 79}
		if len(parReport.Errors) != len(wantIdx) {
			t.Fatalf("workers=%d: %d errors, want %d", workers, len(parReport.Errors), len(wantIdx))
		}
		for k, e := range parReport.Errors {
			if e.Index != wantIdx[k] {
				t.Errorf("workers=%d: error %d has index %d, want %d", workers, k, e.Index, wantIdx[k])
			}
		}
	}
}

func TestParallelFailFastCommitsSequentialPrefix(t *testing.T) {
	docs := genDocs(5, 60)
	docs[37] = "<unclosed>"
	seq := NewExtraction()
	seqReport, seqErr := seq.AddDocsParallelContext(context.Background(), docList(docs), 1, nil, FailFast)
	if seqErr == nil {
		t.Fatal("sequential FailFast did not fail")
	}
	for _, workers := range []int{2, 8} {
		par := NewExtraction()
		parReport, parErr := par.AddDocsParallelContext(context.Background(), docList(docs), workers, nil, FailFast)
		if parErr == nil {
			t.Fatalf("workers=%d: FailFast did not fail", workers)
		}
		var de *DocumentError
		if !asDocumentError(parErr, &de) || de.Index != 37 {
			t.Fatalf("workers=%d: error = %v, want document error at 37", workers, parErr)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: committed prefix differs from sequential", workers)
		}
		if got, want := reportString(parReport), reportString(seqReport); got != want {
			t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("workers=%d: error = %q, want %q", workers, parErr, seqErr)
		}
	}
}

func asDocumentError(err error, out **DocumentError) bool {
	de, ok := err.(*DocumentError)
	if ok {
		*out = de
	}
	return ok
}

func TestAddDocumentsParallelLabelsByPosition(t *testing.T) {
	docs := []io.Reader{
		strings.NewReader("<a/>"),
		strings.NewReader("<bad"),
		strings.NewReader("<b/>"),
	}
	x := NewExtraction()
	report, err := x.AddDocsParallelContext(context.Background(), LabelDocs(docs), 2, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Errors) != 1 {
		t.Fatalf("%d errors, want 1", len(report.Errors))
	}
	if e := report.Errors[0]; e.Index != 1 || e.Label != "document 1" {
		t.Errorf("error = index %d label %q, want index 1 label \"document 1\"", e.Index, e.Label)
	}
}
