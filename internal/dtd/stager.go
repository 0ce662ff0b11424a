package dtd

import (
	"bytes"
	"context"
	"io"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/xmltok"
)

// The one ingestion stager: a reusable stager reads one document's
// tokens through the capped document reader (DocReader, over the
// structure-only tokenizer of internal/xmltok) and stages the document's
// observations in a worker-local interned symbol space, with no
// intermediate strings on the repeat path. An accepted document folds
// into the stager's stage unit (shardStage), still in that symbol space;
// commitShard (pipeline.go) is the one fold from a unit into an
// Extraction, at every worker count. The reader enforces the byte, token
// and depth caps and filters namespace declarations; the stager adds the
// names cap and cancellation. The encoding/xml extraction this replaced
// survives as test code, the reference the decoder-equivalence suites
// (FuzzTokenizerEquivalence) hold the stager to.

// stageFrame is one open element during staging.
type stageFrame struct {
	wid int32
	// childStart is the start of this element's children span in childBuf.
	childStart int
}

// valCount is one staged attribute value with its per-document count.
type valCount struct {
	v string
	n int
}

// attStage stages one element/attribute's per-document statistics. It
// persists across documents (keyed maps and buffers are reused); epoch
// marks the document it was last reset for.
type attStage struct {
	name     string
	epoch    int64
	present  int
	overflow bool
	// idx maps a value to its slot in vals; byte-keyed lookups on the
	// repeat path are allocation-free.
	idx  map[string]int
	vals []valCount
}

// elemStage stages one element name's per-document observations, indexed
// by worker-local symbol ID. Buffers persist across documents; epoch
// marks the document the stage was last reset for, so a rejected
// document's leftovers are invisible to the next one.
type elemStage struct {
	epoch int64
	// arena concatenates this document's children sequences; ends[i] is
	// the arena offset ending the i-th sequence.
	arena []int32
	ends  []int
	// hasText marks non-whitespace character data; texts stages up to
	// textCap trimmed samples (the room the destination and the stage unit
	// leave, so a full destination costs no string materialization at all;
	// commitShard applies the corpus-wide cap). textOverflow records that
	// at least one sample was dropped at the cap, so the kept set is
	// incomplete.
	hasText      bool
	texts        []string
	textCap      int
	textOverflow bool
	// atts stages attribute statistics; attsTouched lists the ones active
	// this document in first-touch order.
	atts        map[string]*attStage
	attsTouched []*attStage
}

// stager drives the document reader over documents and stages
// observations in a worker-local dense symbol space. One instance serves
// a whole one-worker batch (or a pipeline worker's run of shards): the
// reader, the intern table, and every staging buffer are reused across
// documents, so the per-document cost on a warmed-up corpus is map
// probes and slice appends, not allocations.
//
// The worker-local intern table grows with every distinct element name
// the worker ever sees, including names from documents that are later
// rejected; MaxNames bounds the growth per document, and the table dies
// with the batch.
type stager struct {
	rd    *DocReader
	names *intern.Table

	epoch   int64
	elems   []*elemStage // indexed by worker-local symbol ID
	touched []int32      // symbols staged this document, first-touch order

	stack    []stageFrame
	childBuf []int32 // concatenated children spans of the open elements
	rootBuf  []int32

	// shard is the stage unit every accepted document folds into, still
	// keyed by this stager's symbol space; see commitToShard.
	shard *shardStage

	// textHeld is the batch's heldTexts snapshot of the destination.
	textHeld map[string]int

	// flush runs after an accepted document once the unit's staged bytes
	// reach shardFlushBytes: the driver's hook for folding (one worker) or
	// shipping (pipeline) the unit and replacing it. Every driver sets it
	// before ingestDocs. It runs only at a document boundary, which is
	// what keeps sub-shard flushing invisible to the committed result.
	flush func()
}

// newStager returns a stager with an empty stage unit.
func newStager() *stager {
	return &stager{rd: NewDocReader(), names: intern.NewTable(), shard: &shardStage{}}
}

// ingestOne decodes one document under the caps and cancellation
// cadence, folding it into the stage unit only on success: a failing
// document leaves the unit untouched.
func (f *stager) ingestOne(ctx context.Context, r io.Reader, opts *IngestOptions) (docStats, error) {
	maxNames := 0
	if opts != nil {
		maxNames = opts.MaxNames
	}
	f.beginDoc()
	done := ctx.Done()
	rd := f.rd
	rd.Reset(r, opts)
	var stats docStats
	for {
		if done != nil && stats.tokens%cancelCheckInterval == 0 {
			select {
			case <-done:
				return stats, ctx.Err()
			default:
			}
		}
		kind, err := rd.Next()
		stats.bytes = rd.Bytes()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, parseError(err)
		}
		stats.tokens++
		switch kind {
		case xmltok.StartElement:
			stats.elements++
			if err := f.startElement(rd, maxNames); err != nil {
				return stats, err
			}
		case xmltok.EndElement:
			f.endElement()
		case xmltok.CharData:
			f.charData(rd.Text())
		}
	}
	f.commitToShard()
	if f.shard.bytes >= shardFlushBytes {
		f.flush()
	}
	return stats, nil
}

// beginDoc resets the per-document state, including leftovers of a
// previous document that failed mid-parse.
func (f *stager) beginDoc() {
	f.epoch++
	f.touched = f.touched[:0]
	f.stack = f.stack[:0]
	f.childBuf = f.childBuf[:0]
	f.rootBuf = f.rootBuf[:0]
}

// stage returns the element's staging slot, resetting it on first touch
// this document and recording it in the touched list.
func (f *stager) stage(w int32) *elemStage {
	st := f.elems[w]
	if st == nil {
		st = &elemStage{}
		f.elems[w] = st
	}
	if st.epoch != f.epoch {
		st.epoch = f.epoch
		st.arena = st.arena[:0]
		st.ends = st.ends[:0]
		st.hasText = false
		st.texts = st.texts[:0]
		st.textCap = -1
		st.textOverflow = false
		st.attsTouched = st.attsTouched[:0]
		f.touched = append(f.touched, w)
	}
	return st
}

func (f *stager) startElement(rd *DocReader, maxNames int) error {
	w := int32(f.names.InternBytes(rd.Name()))
	for len(f.elems) <= int(w) {
		f.elems = append(f.elems, nil)
	}
	if maxNames > 0 {
		if st := f.elems[w]; st == nil || st.epoch != f.epoch {
			if len(f.touched) >= maxNames {
				return &LimitError{Limit: "names", Max: int64(maxNames), Offset: rd.InputOffset()}
			}
		}
	}
	st := f.stage(w)
	if len(f.stack) == 0 {
		f.rootBuf = append(f.rootBuf, w)
	} else {
		f.childBuf = append(f.childBuf, w)
	}
	for _, a := range rd.Attr() {
		f.recordAttr(st, a.Local, a.Value)
	}
	f.stack = append(f.stack, stageFrame{wid: w, childStart: len(f.childBuf)})
	return nil
}

// recordAttr stages one attribute occurrence under the per-document
// distinct-value cap, byte-keyed so repeated names and values cost no
// allocation.
func (f *stager) recordAttr(st *elemStage, name, val []byte) {
	if st.atts == nil {
		st.atts = map[string]*attStage{}
	}
	a := st.atts[string(name)]
	if a == nil {
		a = &attStage{name: string(name), idx: map[string]int{}}
		st.atts[a.name] = a
	}
	if a.epoch != f.epoch {
		a.epoch = f.epoch
		a.present = 0
		a.overflow = false
		clear(a.idx)
		a.vals = a.vals[:0]
		st.attsTouched = append(st.attsTouched, a)
	}
	a.present++
	if slot, ok := a.idx[string(val)]; ok {
		a.vals[slot].n++
		return
	}
	if len(a.vals) >= maxAttValues {
		a.overflow = true
		return
	}
	v := string(val)
	a.idx[v] = len(a.vals)
	a.vals = append(a.vals, valCount{v: v, n: 1})
}

func (f *stager) endElement() {
	fr := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	st := f.stage(fr.wid)
	st.arena = append(st.arena, f.childBuf[fr.childStart:]...)
	st.ends = append(st.ends, len(st.arena))
	f.childBuf = f.childBuf[:fr.childStart]
}

func (f *stager) charData(text []byte) {
	if len(f.stack) == 0 {
		return
	}
	trimmed := bytes.TrimSpace(text)
	if len(trimmed) == 0 {
		return
	}
	w := f.stack[len(f.stack)-1].wid
	st := f.stage(w)
	st.hasText = true
	if st.textCap < 0 {
		st.textCap = max(0, maxTextSamples-f.textHeld[f.names.Name(int(w))]-f.shard.textLen(w))
	}
	if len(st.texts) < st.textCap {
		st.texts = append(st.texts, string(trimmed))
	} else {
		st.textOverflow = true
	}
}

// commitAttrStage folds one staged attribute statistic into the target,
// honoring the accumulated distinct-value cap (values past it are
// dropped in a's order and set the overflow flag), and marking the
// element dirty on attribute-shape changes: a new attribute, a new
// distinct value, an overflow flip — not on bare presence-count bumps,
// since <!ATTLIST> declarations are recomputed on every inference pass.
// It is the one attribute fold: commitShard and Merge both use it.
func commitAttrStage(target *Extraction, elem string, a *attStage) {
	atts := target.Attributes[elem]
	if atts == nil {
		atts = map[string]*attStats{}
		target.Attributes[elem] = atts
	}
	st := atts[a.name]
	if st == nil {
		st = &attStats{values: map[string]int{}}
		atts[a.name] = st
		target.markDirty(elem)
	}
	hp, hov, hval := attNameHashes(a.name)
	st.present += a.present
	target.attFpAdd(elem, hp, a.present)
	if a.overflow && !st.overflow {
		st.overflow = true
		target.attFpAdd(elem, hov, 1)
		target.markDirty(elem)
	}
	for _, vc := range a.vals {
		if _, seen := st.values[vc.v]; !seen {
			if len(st.values) >= maxAttValues {
				if !st.overflow {
					st.overflow = true
					target.attFpAdd(elem, hov, 1)
					target.markDirty(elem)
				}
				continue
			}
			target.markDirty(elem)
		}
		st.values[vc.v] += vc.n
		target.attFpAdd(elem, attValueHash(hval, vc.v), vc.n)
	}
}

// shardElem is one element's observations accumulated across a shard's
// accepted documents, still keyed by the staging worker's symbol space:
// the children sequences as a counted multiset of worker-local IDs, plus
// the text, attribute and root observations. Nothing here holds a target
// ID or an element-name string beyond attribute names and text values.
type shardElem struct {
	// epoch marks the shardStage generation this slot was last reset for;
	// a recycled shard bumps its epoch instead of clearing every slot.
	epoch int64
	ms    sample.Multiset
	// hasText/texts/textOverflow accumulate like elemStage's fields, under
	// the same per-element cap the final extraction enforces.
	hasText      bool
	texts        []string
	textOverflow bool
	// roots counts how often the element was a document root.
	roots int
	// atts accumulates attribute statistics in first-seen order (attList),
	// uncapped, so the corpus commit applies the distinct-value cap exactly
	// as document-by-document ingestion would.
	atts    map[string]*attStage
	attList []*attStage
}

// resetContent empties the slot's observations for a new shard
// generation, keeping allocated storage. Staged attStages are reset
// lazily by foldAttr through their own epoch marks.
func (se *shardElem) resetContent() {
	se.ms.Reset()
	se.hasText = false
	for i := range se.texts {
		se.texts[i] = ""
	}
	se.texts = se.texts[:0]
	se.textOverflow = false
	se.roots = 0
	se.attList = se.attList[:0]
}

// shardStage stages one flush unit's worth of accepted documents entirely
// in the owning worker's symbol space: per-element counted ID multisets
// plus the scalar observations. The stager fills it with commitToShard
// (per accepted document, keeping failure atomicity) and seals it with
// sealNames; commitShard then folds it into an extraction — inline on
// the one-worker batch, on the pipeline committer in (shard, unit) order
// otherwise — and is the only place worker-local IDs are translated, via
// per-worker cached remaps. Committed units are reused: reset bumps the
// epoch and slot() lazily re-initializes storage.
type shardStage struct {
	// perElem is indexed by the owning worker's symbol ID; touched lists
	// the populated slots in first-touch order across the unit's
	// documents, which is exactly the order sequential ingestion would
	// first observe them.
	perElem   []*shardElem
	touched   []int32
	documents int
	// epoch is the reuse generation; a slot whose epoch differs was last
	// touched by a previous tenant of this arena.
	epoch int64
	// names is the symbol-name snapshot sealed when the unit was shipped:
	// names[w] resolves the worker-local ID w. Captured by the worker so
	// the committer never reads the worker's live, still-growing table.
	names []string
	// bytes estimates the staged footprint, driving sub-shard flushing.
	bytes int
}

// slot returns the shard stage for element w, creating or lazily
// resetting it (and recording the first touch) on demand.
func (sh *shardStage) slot(w int32) *shardElem {
	for len(sh.perElem) <= int(w) {
		sh.perElem = append(sh.perElem, nil)
	}
	se := sh.perElem[w]
	if se == nil {
		se = &shardElem{epoch: -1}
		sh.perElem[w] = se
	}
	if se.epoch != sh.epoch {
		se.epoch = sh.epoch
		se.resetContent()
		sh.touched = append(sh.touched, w)
	}
	return se
}

// sealNames snapshots the staging worker's symbol strings into the unit,
// so the committer resolves worker-local IDs from an immutable slice
// while the worker keeps interning into its live table. The strings
// themselves are immutable and shared; only the slice header array is
// copied.
func (sh *shardStage) sealNames(names *intern.Table) { sh.names = names.Names() }

// reset prepares a committed unit for reuse, keeping allocated storage.
// Per-slot state resets lazily: bumping the epoch invalidates every
// shardElem at once and slot() re-initializes on first touch.
func (sh *shardStage) reset() {
	sh.epoch++
	sh.touched = sh.touched[:0]
	sh.documents = 0
	sh.names = nil
	sh.bytes = 0
}

// textLen returns how many text samples the shard has staged for w.
func (sh *shardStage) textLen(w int32) int {
	if int(w) < len(sh.perElem) {
		if se := sh.perElem[w]; se != nil && se.epoch == sh.epoch {
			return len(se.texts)
		}
	}
	return 0
}

// commitToShard folds one successfully decoded document's staged
// observations into the stager's unit. Everything is already in
// the worker's symbol space, so this is pure ID and counter work — no
// strings, no target maps — and a rejected document never reaches it.
// The staged-byte estimate it maintains is what decides when ingestOne
// runs the flush hook.
func (f *stager) commitToShard() {
	sh := f.shard
	for _, w := range f.touched {
		st := f.elems[w]
		se := sh.slot(w)
		if len(st.ends) > 0 {
			start := 0
			for _, end := range st.ends {
				se.ms.AddIDs(st.arena[start:end], 1)
				start = end
			}
			sh.bytes += 4*len(st.arena) + 16*len(st.ends)
		}
		if st.hasText {
			se.hasText = true
		}
		if st.textOverflow {
			se.textOverflow = true
		}
		for _, t := range st.texts {
			if len(se.texts) >= maxTextSamples {
				se.textOverflow = true
				break
			}
			se.texts = append(se.texts, t)
			sh.bytes += len(t) + 16
		}
		for _, a := range st.attsTouched {
			se.foldAttr(a, sh.epoch)
			sh.bytes += 32
			for _, vc := range a.vals {
				sh.bytes += len(vc.v) + 24
			}
		}
		sh.bytes += 48
	}
	for _, w := range f.rootBuf {
		sh.slot(w).roots++
	}
	sh.documents++
}

// foldAttr accumulates one document's staged attribute statistic into the
// shard stage, preserving first-seen value order so the corpus commit is
// deterministic even when the distinct-value cap truncates. The unit
// itself applies no distinct-value cap: only the corpus knows which
// values it already keeps, so a unit that dropped values at its own cap
// would lose occurrences of values the corpus still counts. The unit's
// byte estimate bounds its size instead. epoch is the owning
// shardStage's reuse generation: a stage last touched by a previous
// tenant of a recycled arena is reset on first sight.
func (se *shardElem) foldAttr(a *attStage, epoch int64) {
	if se.atts == nil {
		se.atts = map[string]*attStage{}
	}
	d := se.atts[a.name]
	if d == nil {
		d = &attStage{name: a.name, epoch: epoch - 1, idx: map[string]int{}}
		se.atts[a.name] = d
	}
	if d.epoch != epoch {
		d.epoch = epoch
		d.present = 0
		d.overflow = false
		clear(d.idx)
		d.vals = d.vals[:0]
		se.attList = append(se.attList, d)
	}
	d.present += a.present
	if a.overflow {
		d.overflow = true
	}
	for _, vc := range a.vals {
		if slot, ok := d.idx[vc.v]; ok {
			d.vals[slot].n += vc.n
			continue
		}
		d.idx[vc.v] = len(d.vals)
		d.vals = append(d.vals, valCount{v: vc.v, n: vc.n})
	}
}

// The fold of a sealed shardStage into an extraction lives with the
// pipeline committer (commitShard in pipeline.go): its commit state is
// keyed by the sealed name snapshot, so a pipeline's workers and
// committer never share mutable state, and the one-worker batch runs the
// same fold inline.
