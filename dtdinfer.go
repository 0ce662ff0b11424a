// Package dtdinfer infers concise Document Type Definitions from XML data,
// implementing Bex, Neven, Schwentick and Tuyls, "Inference of Concise DTDs
// from XML Data" (VLDB 2006).
//
// DTD inference reduces to learning a deterministic regular expression for
// each element name from the sequences of child elements observed in a
// corpus. This package learns two classes that cover over 99% of content
// models in real-world schemas:
//
//   - SOREs (single occurrence regular expressions), via the iDTD
//     algorithm: a 2T-INF automaton is inferred from the sample and
//     rewritten into an equivalent SORE, with repair rules producing a
//     tight super-approximation when the sample is not representative.
//     Best with plenty of data.
//   - CHAREs (chain regular expressions), via the CRX algorithm, which
//     generalizes aggressively and needs very few example strings — the
//     right choice for sparse data such as web-service responses.
//
// Quick start:
//
//	docs := []io.Reader{strings.NewReader(xmlDoc1), strings.NewReader(xmlDoc2)}
//	d, err := dtdinfer.InferDTD(docs, dtdinfer.IDTD, nil)
//	fmt.Println(d) // <!DOCTYPE root [ <!ELEMENT ...> ... ]>
//
// Baseline systems from the paper's evaluation (XTRACT, a Trang-like
// pipeline, and classical state elimination) are available through the same
// API for comparison, and internal/experiments regenerates every table and
// figure of the paper.
package dtdinfer

import (
	"context"
	"io"

	"dtdinfer/internal/contextual"
	"dtdinfer/internal/core"
	"dtdinfer/internal/crx"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
	"dtdinfer/internal/xsd"
)

// Algorithm selects the inference engine.
type Algorithm = core.Algorithm

// The available algorithms: the paper's two contributions and its
// comparison systems.
const (
	// IDTD infers SOREs (best with abundant data).
	IDTD = core.IDTD
	// CRX infers CHAREs (best with sparse data).
	CRX = core.CRX
	// RewriteOnly is rewrite without repairs; it fails on samples that are
	// not representative.
	RewriteOnly = core.RewriteOnly
	// XTRACT is the reconstruction of the XTRACT baseline.
	XTRACT = core.XTRACT
	// TrangLike is the reconstruction of Trang's inference strategy.
	TrangLike = core.TrangLike
	// StateElim translates the inferred automaton by classical state
	// elimination (the paper's negative baseline for conciseness).
	StateElim = core.StateElim
)

// Options tune the engines; the zero value (or nil) uses the paper's
// settings (k = 2 for iDTD's repair rules, 1000-string cap for XTRACT).
type Options = core.Options

// DegradeLadder, set as Options.Degrade, falls back per element when its
// engine fails, exceeds Options.Budget, or panics: configured engine, then
// CRX, then the universal content model (a1|...|an)*. The accepted rung
// is recorded in InferStats.Outcomes.
const DegradeLadder = core.DegradeLadder

// Expr is a regular expression over element names (a content model).
type Expr = regex.Expr

// DTD is an inferred or parsed Document Type Definition.
type DTD = dtd.DTD

// IngestOptions caps the resources one document may consume during
// extraction (nesting depth, token count, distinct element names, input
// bytes) — the XML-bomb defense for untrusted corpora. The zero value
// applies no limits.
type IngestOptions = dtd.IngestOptions

// DefaultIngestOptions returns production-safe caps for untrusted inputs.
func DefaultIngestOptions() *IngestOptions { return dtd.DefaultIngestOptions() }

// ErrLimit matches (with errors.Is) every ingestion cap violation.
var ErrLimit = dtd.ErrLimit

// LimitError reports which ingestion cap a document violated.
type LimitError = dtd.LimitError

// ErrorPolicy selects how batch ingestion reacts to a failing document.
type ErrorPolicy = dtd.ErrorPolicy

const (
	// FailFast aborts the batch at the first failing document.
	FailFast = dtd.FailFast
	// SkipAndRecord records failing documents in the IngestReport and
	// continues; each failure is rolled back, isolating its fault.
	SkipAndRecord = dtd.SkipAndRecord
)

// IngestReport aggregates ingestion counters and per-document errors.
type IngestReport = dtd.IngestReport

// InferStats reports per-element timings from the inference worker pool.
type InferStats = dtd.InferStats

// InferDTDWithReport ingests the documents under the given caps and
// fault-isolation policy, infers a DTD, and reports ingestion counters and
// per-element inference timings. Every AddDocument is failure-atomic, so a
// skipped document contributes nothing: the batch with a malformed
// document (under SkipAndRecord) infers the same DTD as the batch without
// it, with the failure recorded in the report.
func InferDTDWithReport(docs []io.Reader, algo Algorithm, opts *Options,
	ingest *IngestOptions, policy ErrorPolicy) (*DTD, *IngestReport, *InferStats, error) {
	_, d, report, stats, err := inferDocs(context.Background(), docs, algo, opts, ingest, policy)
	return d, report, stats, err
}

// inferDocs is the one path behind every document-level entry point:
// ingest into a fresh extraction, then run its (cold) inference pass.
// The stats are nil when ingestion failed.
func inferDocs(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options,
	ingest *IngestOptions, policy ErrorPolicy) (*dtd.Extraction, *DTD, *IngestReport, *InferStats, error) {
	x, report, err := core.Ingest(ctx, docs, opts, ingest, policy)
	if err != nil {
		return nil, nil, report, nil, err
	}
	d, stats, err := core.InferDTDFromExtractionContext(ctx, x, algo, opts)
	return x, d, report, stats, err
}

// Validator checks documents against a DTD.
type Validator = dtd.Validator

// NewValidator compiles a DTD's content models for validation.
func NewValidator(d *DTD) *Validator { return dtd.NewValidator(d) }

// ParseDTD reads <!ELEMENT> declarations, optionally wrapped in
// <!DOCTYPE root [...]>.
func ParseDTD(src string) (*DTD, error) { return dtd.Parse(src) }

// InferContentModel learns a single content-model expression from positive
// example strings (sequences of child element names). It is where verbatim
// strings enter the library: they are folded into a counted sample, so
// duplicates cost a count bump rather than repeated work in the engine.
func InferContentModel(sample [][]string, algo Algorithm, opts *Options) (*Expr, error) {
	return core.InferSampleExpr(smp.FromStrings(sample), algo, opts)
}

// InferDTD extracts element sequences from the XML documents and infers a
// complete DTD.
func InferDTD(docs []io.Reader, algo Algorithm, opts *Options) (*DTD, error) {
	return InferDTDContext(context.Background(), docs, algo, opts)
}

// InferDTDContext is InferDTD under a context: cancellation propagates
// into the XML decode loops and every engine's hot loop, and opts.Budget
// and opts.Degrade govern per-element resource caps and the degradation
// ladder. A cancelled call returns ctx.Err() promptly without leaking
// goroutines.
func InferDTDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (*DTD, error) {
	_, d, _, _, err := inferDocs(ctx, docs, algo, opts, nil, FailFast)
	return d, err
}

// Doc is one labelled document in an ingestion batch: a reader plus the
// label (typically a file name) error reports attribute failures to.
type Doc = dtd.Doc

// Snapshot is one published inference result: an immutable DTD tagged
// with a monotonically increasing version, plus the stats of the pass
// that produced it. Readers may hold a snapshot indefinitely while newer
// versions are published.
type Snapshot = core.Snapshot

// Incremental maintains a DTD over a growing corpus: ingest batches with
// AddDocs, publish immutable versioned snapshots with Refresh, and read
// the latest with Current (a lock-free atomic load, safe concurrent with
// ingestion and re-inference). Re-inference is incremental: elements
// whose samples are unchanged replay their cached content models.
type Incremental = core.Incremental

// NewIncremental returns an empty incremental inferrer for the given
// engine configuration.
func NewIncremental(algo Algorithm, opts *Options) *Incremental {
	return core.NewIncremental(algo, opts)
}

// ChangeFeed renders what changed between two published snapshots
// ("v3→v4: modified <order>, added <sku>"). A nil prev reports every
// element as added.
func ChangeFeed(prev, next *Snapshot) string { return core.ChangeFeed(prev, next) }

// InferXSD infers a schema and renders it as W3C XML Schema with datatype
// detection over the sampled text values.
func InferXSD(docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	return InferXSDContext(context.Background(), docs, algo, opts)
}

// InferXSDContext is InferXSD under a context, with the same cancellation
// and budget semantics as InferDTDContext.
func InferXSDContext(ctx context.Context, docs []io.Reader, algo Algorithm, opts *Options) (string, error) {
	x, d, _, _, err := inferDocs(ctx, docs, algo, opts, nil, FailFast)
	if err != nil {
		return "", err
	}
	return xsd.Generate(d, x.TextSamples), nil
}

// IncrementalCRX is the summary state for incremental CHARE inference
// (Section 9): summarize strings with NewIncrementalCRX, combine summaries
// with Merge, and obtain the current expression with Infer.
type IncrementalCRX = crx.State

// NewIncrementalCRX returns the CRX summary of the given strings (nil for
// an empty one). The summary keeps the →W order relation and occurrence
// profiles capped at two, so the strings themselves can be forgotten.
func NewIncrementalCRX(sample [][]string) *IncrementalCRX {
	st := crx.NewState()
	st.AddSample(smp.FromStrings(sample))
	return st
}

// ContextualSchema is a schema with k-local typing: the content model of
// an element may depend on up to k ancestor names, exceeding DTD
// expressiveness exactly the way XML Schema does — the paper's stated
// future work, realized for the k-local case.
type ContextualSchema = contextual.Schema

// InferContextualSchema extracts per-context samples (contexts keep up to
// k ancestor names; k = 0 degenerates to DTD inference) and infers a
// contextual schema with the chosen algorithm. Contexts of an element with
// equivalent content languages and equivalent child typing are merged, so
// the schema has as few types as the data supports; render it with ToXSD,
// flatten with ToDTD, or validate with NewContextualValidator.
func InferContextualSchema(docs []io.Reader, k int, algo Algorithm, opts *Options) (*ContextualSchema, error) {
	x := contextual.NewExtraction(k)
	for _, r := range docs {
		if err := x.AddDocument(r); err != nil {
			return nil, err
		}
	}
	return x.InferSchema(func(s *smp.Set) (*Expr, error) {
		return core.InferSampleExpr(s, algo, opts)
	})
}

// NewContextualValidator compiles a contextual schema for validation.
func NewContextualValidator(s *ContextualSchema) *contextual.Validator {
	return contextual.NewValidator(s)
}
