package dtdinfer

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// TestParallelIngestionDTDByteIdentical is the parallel/sequential
// equivalence property: for shuffled corpora and any worker count, the
// inferred DTD must be byte-identical to sequential inference on the same
// document order. 2T-INF and the CRX summaries are commutative unions and
// the pipelined committer replays document order (shard k folds into the
// corpus while k+1..N still decode), so neither parallelism nor the
// decode/commit overlap must be observable in the output.
func TestParallelIngestionDTDByteIdentical(t *testing.T) {
	base := corpus.Protein(3, 90)
	base = append(base, corpus.Mondial(4, 40)...)
	for _, algo := range []Algorithm{IDTD, CRX} {
		for shuffle := int64(0); shuffle < 3; shuffle++ {
			docs := append([]string(nil), base...)
			rand.New(rand.NewSource(shuffle)).Shuffle(len(docs), func(i, j int) {
				docs[i], docs[j] = docs[j], docs[i]
			})
			want := inferString(t, docs, algo, 1, wholeReads)
			for _, workers := range []int{2, 3, 5, 8} {
				if got := inferString(t, docs, algo, workers, wholeReads); got != want {
					t.Errorf("algo=%s shuffle=%d workers=%d: DTD differs from sequential\ngot:\n%s\nwant:\n%s",
						algo, shuffle, workers, got, want)
				}
			}
		}
	}
}

// TestParallelIngestionPipelinedBothDecoders sweeps the pipelined path
// across worker counts 1..8 in both read shapes (the test keeps the name
// of the two decoders the shapes replaced): every worker count must
// reproduce the sequential DTD byte-for-byte.
func TestParallelIngestionPipelinedBothDecoders(t *testing.T) {
	docs := append(corpus.Protein(7, 60), corpus.Mondial(8, 25)...)
	for _, shape := range readShapes {
		want := inferString(t, docs, IDTD, 1, shape)
		for workers := 2; workers <= 8; workers++ {
			if got := inferString(t, docs, IDTD, workers, shape); got != want {
				t.Errorf("shape=%s workers=%d: DTD differs from sequential\ngot:\n%s\nwant:\n%s",
					shape.name, workers, got, want)
			}
		}
	}
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

var readShapes = []readShape{wholeReads, {"std", iotest.OneByteReader}}

var wholeReads = readShape{"fast", func(r io.Reader) io.Reader { return r }}

func inferString(t *testing.T, docs []string, algo Algorithm, workers int, shape readShape) string {
	t.Helper()
	readers := make([]io.Reader, len(docs))
	for i, d := range docs {
		readers[i] = shape.wrap(strings.NewReader(d))
	}
	d, _, _, err := InferDTDWithReport(readers, algo,
		&Options{Parallelism: workers}, nil, dtd.SkipAndRecord)
	if err != nil {
		t.Fatalf("algo=%s workers=%d: %v", algo, workers, err)
	}
	return d.String()
}
