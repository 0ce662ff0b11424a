package dtd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dtdinfer/internal/faultinject"
)

// Ingestion hardening: real-world corpora are large and messy, so the
// extraction layer must survive truncated, malformed and adversarial
// documents without corrupting accumulated state or exhausting memory.
// This file provides the resource caps (IngestOptions), the per-document
// fault-isolation policies (ErrorPolicy), the per-document loop every
// batch runs (ingestDocs) with its metrics report (IngestReport), the
// one-worker batch, the batch-atomicity decision shared with the
// pipeline, and the Merge primitive that folds whole extractions
// (snapshots, summaries, batch-atomic staging) into one another. Every
// document is staged by the stager (stager.go) into a stage unit only on
// success, and every unit reaches the corpus through commitShard
// (pipeline.go).

// IngestOptions caps the resources one document may consume during
// extraction, defending against XML bombs (deeply nested or enormous
// inputs). The zero value (or a nil pointer) applies no limits; use
// DefaultIngestOptions for production-safe caps. A violated cap aborts
// the document with a *LimitError and, by failure-atomicity, leaves the
// accumulator untouched.
type IngestOptions struct {
	// MaxDepth caps element nesting depth (0 = unlimited).
	MaxDepth int
	// MaxTokens caps the number of XML tokens per document (0 = unlimited).
	MaxTokens int64
	// MaxNames caps the number of distinct element names per document
	// (0 = unlimited), bounding accumulator growth on adversarial inputs.
	MaxNames int
	// MaxBytes caps the bytes read from one document (0 = unlimited).
	MaxBytes int64
}

// DefaultIngestOptions returns caps suitable for untrusted inputs:
// generous enough for any sane document, small enough that a decoding
// bomb is rejected long before memory pressure.
func DefaultIngestOptions() *IngestOptions {
	return &IngestOptions{
		MaxDepth:  10_000,
		MaxTokens: 50_000_000,
		MaxNames:  100_000,
		MaxBytes:  1 << 30, // 1 GiB
	}
}

// ErrLimit matches (with errors.Is) every cap violation.
var ErrLimit = errors.New("dtd: ingestion limit exceeded")

// LimitError reports which IngestOptions cap a document violated.
type LimitError struct {
	// Limit names the violated cap: "depth", "tokens", "names" or "bytes".
	Limit string
	// Max is the configured cap.
	Max int64
	// Offset is the byte position in the input where the cap was hit.
	Offset int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("dtd: input exceeds %s limit %d at offset %d", e.Limit, e.Max, e.Offset)
}

// Is makes errors.Is(err, ErrLimit) true for every cap violation.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// ErrorPolicy selects how a batch reacts to a failing document.
type ErrorPolicy int

const (
	// FailFast aborts the batch at the first failing document. Documents
	// before it stay committed; the failing one is rolled back.
	FailFast ErrorPolicy = iota
	// SkipAndRecord rolls back each failing document, records it in the
	// IngestReport, and continues with the rest of the batch.
	SkipAndRecord
)

func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipAndRecord:
		return "skip-and-record"
	}
	return fmt.Sprintf("ErrorPolicy(%d)", int(p))
}

// DocumentError is one document's ingestion failure.
type DocumentError struct {
	// Index is the document's position in the batch.
	Index int
	// Label identifies the document (a file name, or "document N").
	Label string
	// Err is the underlying parse or limit error.
	Err error
}

func (e *DocumentError) Error() string { return fmt.Sprintf("%s: %v", e.Label, e.Err) }

func (e *DocumentError) Unwrap() error { return e.Err }

// IngestReport aggregates counters and per-document errors from a batch.
type IngestReport struct {
	// Documents counts documents attempted.
	Documents int
	// Accepted counts documents committed into the extraction.
	Accepted int
	// Rejected counts documents rolled back.
	Rejected int
	// Bytes counts input bytes consumed (including rejected documents, up
	// to their point of failure).
	Bytes int64
	// Tokens counts XML tokens decoded from accepted documents.
	Tokens int64
	// Elements counts start-element tokens in accepted documents.
	Elements int64
	// TextOverflows counts elements whose text samples were truncated at
	// the per-element cap — entries in Extraction.TextOverflow after the
	// batch, mirroring the attribute statistics' overflow flag.
	TextOverflows int
	// Errors lists one entry per rejected document.
	Errors []*DocumentError
	// Pipeline carries the streaming-ingestion stage timings when the
	// batch ran on the pipelined parallel path (nil otherwise). The
	// durations are wall-clock measurements — everything else in the
	// report stays deterministic for a given batch.
	Pipeline *PipelineStats
}

// add accumulates another report's counters and errors into r, used when
// concatenating per-shard reports in shard order. TextOverflows is not
// additive (it is a property of the merged extraction, not of a shard)
// and is set by the batch APIs after commit.
func (r *IngestReport) add(o *IngestReport) {
	r.Documents += o.Documents
	r.Accepted += o.Accepted
	r.Rejected += o.Rejected
	r.Bytes += o.Bytes
	r.Tokens += o.Tokens
	r.Elements += o.Elements
	r.Errors = append(r.Errors, o.Errors...)
}

// Err returns the first per-document error (nil when all were accepted).
func (r *IngestReport) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	return r.Errors[0]
}

// String renders a short human-readable summary plus one line per error.
func (r *IngestReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ingested %d/%d documents (%d rejected), %d bytes, %d tokens, %d elements",
		r.Accepted, r.Documents, r.Rejected, r.Bytes, r.Tokens, r.Elements)
	if r.TextOverflows > 0 {
		fmt.Fprintf(&b, ", %d elements with truncated text samples", r.TextOverflows)
	}
	if p := r.Pipeline; p != nil {
		fmt.Fprintf(&b, "\n  pipeline: %d workers x %d shards in %d flush units (%d arenas reused), wall %v",
			p.Workers, p.Shards, p.FlushUnits, p.ArenaReuses, p.Wall.Round(time.Microsecond))
		fmt.Fprintf(&b, "\n  workers: decode %v, flush-wait %v; committer: commit %v, idle %v",
			p.Decode.Round(time.Microsecond), p.FlushWait.Round(time.Microsecond),
			p.Commit.Round(time.Microsecond), p.CommitterIdle.Round(time.Microsecond))
		if p.FinalMerge > 0 {
			fmt.Fprintf(&b, ", final merge %v", p.FinalMerge.Round(time.Microsecond))
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// Doc pairs a reader with a label for error reporting.
type Doc struct {
	Label string
	R     io.Reader
}

// AddDocumentOptions parses one XML document under the given resource
// caps and accumulates its observations: the one-worker batch over one
// document, returning the document's own error. The operation is
// failure-atomic: on any error (malformed XML, unbalanced tags, violated
// cap) the extraction is left exactly as it was.
func (x *Extraction) AddDocumentOptions(r io.Reader, opts *IngestOptions) error {
	_, err := x.addDocsInline(context.Background(), []Doc{{R: r}}, opts, FailFast)
	var derr *DocumentError
	if errors.As(err, &derr) {
		return derr.Err
	}
	return err
}

// LabelDocs labels readers by position ("document 0", "document 1", ...)
// for the batch verb, for callers that have no file names.
func LabelDocs(docs []io.Reader) []Doc {
	labeled := make([]Doc, len(docs))
	for i, r := range docs {
		labeled[i] = Doc{Label: fmt.Sprintf("document %d", i), R: r}
	}
	return labeled
}

// addDocsInline is the one-worker batch: the pipeline worker's loop run
// on the calling goroutine, with no goroutines or channels. One stager
// stages accepted documents into its unit; whenever the unit reaches the
// flush budget, and once at the end of the batch, commitShard folds it
// into the batch target and the unit is reset for reuse. Cancellation is
// batch-atomic (see batchTarget): a cancelled call returns ctx.Err()
// alongside the partial report and leaves x exactly as it was.
func (x *Extraction) addDocsInline(ctx context.Context, docs []Doc, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	report := &IngestReport{}
	target := x.batchTarget(ctx)
	st := newStager()
	st.textHeld = target.heldTexts()
	var wc workerCommit
	fold := func() {
		st.shard.sealNames(st.names)
		commitShard(&wc, st.shard, target)
		st.shard.reset()
	}
	st.flush = fold
	derr, cancelErr := ingestDocs(st, ctx, docs, 0, opts, policy, report)
	if cancelErr != nil {
		return report, cancelErr
	}
	fold()
	x.adopt(target)
	report.TextOverflows = len(x.TextOverflow)
	if derr != nil {
		return report, derr
	}
	return report, nil
}

// ingestDocs runs the per-document staging loop through st, labeling
// errors with baseIndex+i so a shard of a larger batch reports original
// document positions. The first return is the first failing document
// under FailFast; the second is the context's error when the batch was
// abandoned mid-way — a cancelled document is batch abortion, not a
// per-document fault, so it is never recorded in the report. This is the
// one per-document loop: the one-worker batch runs it over the whole
// batch, and each pipeline worker over every shard it claims, with one
// stager amortizing its decoder and staging buffers across them.
func ingestDocs(st *stager, ctx context.Context, docs []Doc, baseIndex int, opts *IngestOptions, policy ErrorPolicy, report *IngestReport) (*DocumentError, error) {
	for i, doc := range docs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		report.Documents++
		stats, err := st.ingestOne(ctx, doc.R, opts)
		report.Bytes += stats.bytes
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The decode loop observed cancellation (or the reader
				// failed while the context was already dead): abandon the
				// batch instead of charging the document with a fault.
				report.Documents--
				report.Bytes -= stats.bytes
				return nil, cerr
			}
			report.Rejected++
			derr := &DocumentError{Index: baseIndex + i, Label: doc.Label, Err: err}
			report.Errors = append(report.Errors, derr)
			if policy == FailFast {
				return derr, nil
			}
			continue
		}
		report.Accepted++
		report.Tokens += stats.tokens
		report.Elements += stats.elements
	}
	return nil, nil
}

// batchTarget is the one batch-atomicity decision, made for the
// one-worker batch and the pipeline alike: the extraction a batch
// commits into. When the run can abort mid-commit (a cancellable
// context, or an armed pipeline.commit fault) it is a fresh staging
// extraction that adopt publishes into x only on success, so an aborted
// run leaves x untouched by construction. Otherwise nothing can abort a
// commit, and the batch commits straight into x at no extra cost.
func (x *Extraction) batchTarget(ctx context.Context) *Extraction {
	if ctx.Done() != nil || faultinject.ArmedAt("pipeline.commit") {
		return NewExtraction()
	}
	return x
}

// heldTexts snapshots how many text samples x holds per element, taken
// before a batch stages anything for x. x only grows while the batch
// runs, so no document needs to stage more samples for an element than
// the room left at batch start: an element whose samples are full costs
// no staged string at all, and the corpus-wide cap in commitShard drops
// exactly what it would have dropped anyway.
func (x *Extraction) heldTexts() map[string]int {
	held := make(map[string]int, len(x.TextSamples))
	for name, samples := range x.TextSamples {
		held[name] = len(samples)
	}
	return held
}

// adopt publishes a completed batch's target (see batchTarget) into x.
// A batch that committed into x itself needs nothing. Into an empty x
// the staging is adopted wholesale, which is byte-identical to having
// committed into x directly and free (x keeps its own inference lock);
// otherwise it is merged.
func (x *Extraction) adopt(target *Extraction) {
	switch {
	case target == x:
	case x.isEmpty():
		mu := x.inferMu
		*x = *target
		x.inferMu = mu
	default:
		x.Merge(target)
	}
}

// Merge folds another extraction's observations into x, preserving the
// per-element text-sample and attribute-value caps. Below the
// attribute-value cap, Merge(a); Merge(b) is equivalent to ingesting a's
// and b's documents directly. At the cap, Merge keeps the lexically
// first of o's new values (o holds no first-seen order to replay), so
// the result is deterministic but may keep different values than direct
// ingestion would; an overflowed attribute is CDATA either way. Sequence
// samples merge at the interned-ID level (see sample.Set.Merge): cost is
// proportional to o's *unique* sequences, and element-name strings are
// only touched on the first corpus-wide sight of a symbol.
func (x *Extraction) Merge(o *Extraction) {
	for name, seqs := range o.Sequences {
		s := x.sampleOf(name)
		before := s.ShapeFingerprint()
		s.Merge(seqs)
		if s.ShapeFingerprint() != before {
			x.markDirty(name)
		}
	}
	for name, has := range o.HasText {
		if has && !x.HasText[name] {
			x.HasText[name] = true
			x.markDirty(name)
		}
	}
	for name, samples := range o.TextSamples {
		have := x.TextSamples[name]
		for _, s := range samples {
			if len(have) >= maxTextSamples {
				// Samples beyond the cap are dropped, so the kept set is no
				// longer the complete observation — record that, exactly
				// like the per-document path does when it truncates.
				x.TextOverflow[name] = true
				break
			}
			have = append(have, s)
		}
		x.TextSamples[name] = have
	}
	for name, of := range o.TextOverflow {
		if of {
			x.TextOverflow[name] = true
		}
	}
	for elem, atts := range o.Attributes {
		for att, st := range atts {
			a := &attStage{name: att, present: st.present, overflow: st.overflow}
			for v, n := range st.values {
				a.vals = append(a.vals, valCount{v: v, n: n})
			}
			sort.Slice(a.vals, func(i, j int) bool { return a.vals[i].v < a.vals[j].v })
			commitAttrStage(x, elem, a)
		}
	}
	for name, n := range o.Roots {
		x.Roots[name] += n
	}
	x.Documents += o.Documents
}

// InferStats reports one inference pass: per-element timings, engine
// outcomes and model-cache traffic.
type InferStats struct {
	// Wall is the wall-clock time of the whole inference.
	Wall time.Duration
	// PerElement holds one entry per inferred element, in the DTD's
	// deterministic element order.
	PerElement []ElementTiming
	// Outcomes holds one entry per element whose inferrer reported an
	// outcome (engine used, degradation rung, cause), in the DTD's
	// deterministic element order. Empty when the inferrer predates the
	// outcome protocol or no element has children content.
	Outcomes []ElementOutcome
	// The cache counters classify every children-content element of the
	// pass exactly once (see Extraction.InferDTD): hits returned a
	// memoized model without running an engine; misses had no cached
	// entry; recomputes had an entry whose fingerprint no longer matched
	// the sample.
	CacheHits       int
	CacheMisses     int
	CacheRecomputes int
	// Dirty counts the elements whose structural observations had
	// changed since the previous pass, captured before this pass cleared
	// the bits.
	Dirty int
	// AttListReplayed reports whether <!ATTLIST> inference was replayed
	// from the attribute-fingerprint cache instead of recomputed — true
	// on a warm pass with no attribute-relevant changes since the
	// previous one.
	AttListReplayed bool
}

// ElementTiming is one element's inference cost.
type ElementTiming struct {
	// Name is the element name.
	Name string
	// Sequences is the sample size the content model was inferred from.
	Sequences int
	// Duration is the time spent inferring this element's declaration.
	Duration time.Duration
}

// String renders the timings, slowest element first.
func (s *InferStats) String() string {
	order := make([]ElementTiming, len(s.PerElement))
	copy(order, s.PerElement)
	for i := 1; i < len(order); i++ { // insertion sort by duration, desc
		for j := i; j > 0 && order[j].Duration > order[j-1].Duration; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "inferred %d elements in %v", len(order), s.Wall)
	attlist := "recomputed"
	if s.AttListReplayed {
		attlist = "replayed"
	}
	fmt.Fprintf(&b, "\n  cache: %d hits, %d misses, %d recomputes; %d dirty elements; attlist %s",
		s.CacheHits, s.CacheMisses, s.CacheRecomputes, s.Dirty, attlist)
	for _, t := range order {
		fmt.Fprintf(&b, "\n  %-24s %8d seqs  %v", t.Name, t.Sequences, t.Duration)
	}
	for _, o := range s.Outcomes {
		if o.DegradedFrom == "" {
			continue
		}
		fmt.Fprintf(&b, "\n  %-24s degraded %s -> %s (%s)", o.Name, o.DegradedFrom, o.Engine, o.Cause)
	}
	return b.String()
}
