package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
)

// corpusInput is one tenant's generated corpus with everything the
// checks need: the reference output and the traffic documents.
type corpusInput struct {
	name  string
	files *corpusFiles
	// refDTD is the DTD inferred in-process by sequential ingestion
	// (one worker) of the same files; dtdinfer -j N must print it byte
	// for byte, and a recovered dtdserved tenant must serve it.
	refDTD  string
	refHash string // SHA-256 of refDTD plus dtdinfer's final newline
	// validate is the pool of validate bodies with their known verdicts.
	validate []validateDoc
	// fresh are new documents, from a seed stream the corpus never saw,
	// for the ingest stream.
	fresh [][]byte
}

type validateDoc struct {
	body  []byte
	valid bool
}

// invalidEvery makes every invalidEvery-th validate request a document
// that is invalid by construction.
const invalidEvery = 10

// validatePool is the number of distinct valid documents the validate
// stream cycles through.
const validatePool = 512

// inferArgs are dtdinfer's arguments over the corpus (iDTD, the default).
func (c *corpusInput) inferArgs(workers int, saveCorpus string) []string {
	args := []string{"-j", strconv.Itoa(workers)}
	if saveCorpus != "" {
		args = append(args, "-save-corpus", saveCorpus)
	}
	return append(args, c.files.paths...)
}

// docs wraps the corpus files as labelled in-memory documents.
func (c *corpusInput) docs() []dtd.Doc {
	out := make([]dtd.Doc, len(c.files.data))
	for i, d := range c.files.data {
		out[i] = dtd.Doc{Label: c.files.paths[i], R: bytes.NewReader(d)}
	}
	return out
}

// inferOptions are dtdinfer's defaults: iDTD with the degradation ladder.
func inferOptions(workers int) *core.Options {
	return &core.Options{Parallelism: workers, Degrade: core.DegradeLadder}
}

// reference infers the corpus's DTD in-process with one ingestion worker.
func (c *corpusInput) reference() error {
	x := dtd.NewExtraction()
	if _, err := x.AddDocsParallelContext(context.Background(), c.docs(), 1, &dtd.IngestOptions{}, dtd.FailFast); err != nil {
		return fmt.Errorf("reference ingest of %s: %w", c.name, err)
	}
	d, err := core.InferDTDFromExtraction(x, core.IDTD, inferOptions(1))
	if err != nil {
		return fmt.Errorf("reference inference of %s: %w", c.name, err)
	}
	c.refDTD = d.String()
	sum := sha256.Sum256([]byte(c.refDTD + "\n"))
	c.refHash = hex.EncodeToString(sum[:])
	return nil
}

// prepare generates every input of the run, computes the reference and
// writes the tenant summary dtdserved recovers. Nothing here is timed.
func (r *run) prepare() error {
	if err := os.MkdirAll(r.dataDir(), 0o755); err != nil {
		return err
	}
	c := &corpusInput{name: r.w.corpus}
	dir := filepath.Join(r.work, c.name)
	var err error
	switch c.name {
	case "protein":
		c.files, err = writeCorpus(dir, proteinFiles, r.nproc, func(i int) []byte { return proteinFile(r.seed, streamProtein, i) })
	case "wide":
		ws := newWideSchema()
		c.files, err = writeCorpus(dir, wideFiles, r.nproc, func(i int) []byte { return ws.file(r.seed, streamWide, i) })
	}
	if err != nil {
		return err
	}
	if err := c.reference(); err != nil {
		return err
	}
	r.c = c
	fmt.Printf("corpus %s: %d files, %d bytes\n", c.name, len(c.files.paths), c.files.bytes)

	// The summary dtdserved recovers is written by dtdinfer itself,
	// after inference, exactly as an operator seeds the daemon.
	summary := filepath.Join(r.dataDir(), c.name+".corpus")
	res, err := runDtdinfer(filepath.Join(r.bin, "dtdinfer"), c.inferArgs(r.nproc, summary))
	if err != nil {
		return err
	}
	if res.hash != c.refHash {
		r.fail(fmt.Errorf("dtdinfer -save-corpus output on %s differs from the reference", c.name))
	}
	r.trafficDocs(c)
	return nil
}

// trafficDocs builds the validate pool and the fresh ingest documents.
// Valid validate documents are training documents: an inferred DTD
// accepts every document it was learned from, so their verdict is known
// without consulting the program. Invalid ones are training documents
// broken in a way no DTD inferred from the corpus accepts.
func (r *run) trafficDocs(c *corpusInput) {
	rng := rand.New(rand.NewSource(subSeed(r.seed, streamTraffic, 0)))
	nFresh := r.freshNeeded()
	switch c.name {
	case "protein":
		for len(c.validate) < validatePool {
			for _, d := range proteinDocs(r.seed, streamProtein, rng.Intn(len(c.files.paths))) {
				c.validate = append(c.validate, validateDoc{body: []byte(d), valid: true})
			}
		}
		// A fresh shard, not a single document: nearly every shard adds
		// a child string some element has not seen, so nearly every
		// ingest re-infers a model. A single document does so only about
		// a third of the time, which makes the ingest latencies bimodal,
		// with a median that moves between the modes from run to run.
		c.fresh = generate(nFresh, r.nproc, func(i int) []byte { return proteinFile(r.seed, streamProteinFresh, i) })
	case "wide":
		ws := newWideSchema()
		for i := 0; i < validatePool; i++ {
			c.validate = append(c.validate, validateDoc{body: c.files.data[rng.Intn(len(c.files.data))], valid: true})
		}
		c.fresh = generate(nFresh, r.nproc, func(i int) []byte { return ws.file(r.seed, streamWideFresh, i) })
	}
	c.validate = c.validate[:validatePool]
	for i := invalidEvery - 1; i < len(c.validate); i += invalidEvery {
		var broken string
		if c.name == "protein" {
			broken = breakProtein(string(c.validate[i].body))
		} else {
			broken = breakWide(string(c.validate[i].body))
		}
		c.validate[i] = validateDoc{body: []byte(broken), valid: false}
	}
}
