package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/regex"
)

// Seeded input generation. Every input of a workload is a pure function
// of its seed: the corpus files, the documents the load generator sends
// and the verdict each validate request must receive. Generation runs
// before any clock starts.

const (
	// proteinFiles × proteinDocsPerFile corpus.Protein documents make the
	// ~100 MB protein corpus: each file is one <ProteinDatabase> holding
	// the entries of 30 generated documents (~60 entries, ~100 KB), like
	// one shard of the paper's single 683 MB Protein Sequence Database.
	proteinFiles       = 1000
	proteinDocsPerFile = 30

	// wideFiles documents over the wide schema make the ~4 MB corpus.
	wideFiles = 400
	// wideCopies renamed copies of every Table 1 and Table 2 content
	// model sit under the wide root.
	wideCopies = 8
	// wideMinChildren and wideMaxChildren bound the length of each
	// document's root string, so each copy element sees ~300–600 strings.
	wideMinChildren = 90
	wideMaxChildren = 160
)

// Stream identifiers keep the sub-seeds of different inputs independent.
const (
	streamProtein = iota + 1
	streamWide
	streamProteinFresh
	streamWideFresh
	streamTraffic
)

// subSeed mixes a workload seed, a stream and an index into an
// independent generator seed (splitmix64 finalizer).
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// proteinDocs returns the corpus.Protein documents of one protein corpus
// file of the given stream.
func proteinDocs(seed int64, stream, i int) []string {
	return corpus.Protein(subSeed(seed, stream, i), proteinDocsPerFile)
}

const (
	proteinOpen  = "<ProteinDatabase>"
	proteinClose = "</ProteinDatabase>"
)

// proteinFile merges the entries of one shard's documents under one
// root: the i-th corpus file of streamProtein, or the i-th fresh shard
// of streamProteinFresh that the ingest stream uploads.
func proteinFile(seed int64, stream, i int) []byte {
	var b bytes.Buffer
	b.WriteString(proteinOpen)
	for _, d := range proteinDocs(seed, stream, i) {
		b.WriteString(strings.TrimSuffix(strings.TrimPrefix(d, proteinOpen), proteinClose))
	}
	b.WriteString(proteinClose)
	return b.Bytes()
}

// breakProtein removes the header of the first ProteinEntry. Every
// training entry starts with a header, so no DTD inferred from the corpus
// accepts the result.
func breakProtein(doc string) string {
	i := strings.Index(doc, "<header>")
	j := strings.Index(doc, "</header>")
	if i < 0 || j < i {
		panic("perfbench: protein document without a header")
	}
	return doc[:i] + doc[j+len("</header>"):]
}

// wideSchema is the engine-bound schema: wideCopies renamed copies of
// every Table 1 and Table 2 content model, over the models' own leaf
// symbols a1..a61 declared EMPTY, under a root whose content is the
// repeated disjunction of all copies.
type wideSchema struct {
	names  []string
	models []*regex.Expr
}

const wideRoot = "wide"

func newWideSchema() *wideSchema {
	var bases []string
	var truths []string
	for _, r := range experiments.Table1 {
		bases = append(bases, r.Element)
		truths = append(truths, r.CorpusTruth)
	}
	for _, r := range experiments.Table2 {
		bases = append(bases, r.Element)
		truths = append(truths, r.Original)
	}
	w := &wideSchema{}
	for c := 0; c < wideCopies; c++ {
		for k, base := range bases {
			w.names = append(w.names, fmt.Sprintf("%s_%d", base, c))
			w.models = append(w.models, regex.MustParse(truths[k]))
		}
	}
	return w
}

// file generates one wide document of the given stream.
func (w *wideSchema) file(seed int64, stream, i int) []byte {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, i)))
	s := &datagen.Sampler{Rng: rng, Continue: 0.5, MaxReps: 8}
	var b bytes.Buffer
	b.WriteString("<" + wideRoot + ">")
	n := wideMinChildren + rng.Intn(wideMaxChildren-wideMinChildren+1)
	for j := 0; j < n; j++ {
		k := rng.Intn(len(w.names))
		b.WriteString("<" + w.names[k] + ">")
		for _, leaf := range s.Sample(w.models[k]) {
			b.WriteString("<" + leaf + "/>")
		}
		b.WriteString("</" + w.names[k] + ">")
	}
	b.WriteString("</" + wideRoot + ">")
	return b.Bytes()
}

// breakWide adds an undeclared first child to the root, which no DTD
// inferred from the corpus accepts.
func breakWide(doc string) string {
	open := "<" + wideRoot + ">"
	return open + "<undeclared/>" + strings.TrimPrefix(doc, open)
}

// corpusFiles is one generated corpus on disk.
type corpusFiles struct {
	paths []string
	data  [][]byte
	bytes int64
}

// generate returns gen(0..n-1), computed on up to workers goroutines
// (at least one).
func generate(n, workers int, gen func(i int) []byte) [][]byte {
	out := make([][]byte, n)
	workers = max(workers, 1)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = gen(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// writeCorpus generates n files with gen on up to workers goroutines and
// writes them under dir as 0000.xml, 0001.xml, ...
func writeCorpus(dir string, n, workers int, gen func(i int) []byte) (*corpusFiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpusFiles{paths: make([]string, n), data: generate(n, workers, gen)}
	errs := make([]error, n)
	for i := range c.data {
		c.paths[i] = filepath.Join(dir, fmt.Sprintf("%04d.xml", i))
		errs[i] = os.WriteFile(c.paths[i], c.data[i], 0o644)
	}
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c.bytes += int64(len(c.data[i]))
	}
	return c, nil
}
