package dtd

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"dtdinfer/internal/xmltok"
)

// The references: the encoding/xml decode loops production ingestion and
// validation ran before the tokenizer became the one XML event source.
// They are kept as test code so the equivalence suites can hold the
// stager and the Validator to the loops they replaced.

// refIngest ingests one document through the reference loop into x,
// failure-atomically: stage into a scratch extraction plus verbatim
// sequence and attribute buffers, then Merge and commit the buffers on
// success.
func refIngest(ctx context.Context, x *Extraction, r io.Reader, opts *IngestOptions) (docStats, error) {
	stage := NewExtraction()
	seqs := map[string][][]string{}
	var atts []attObs
	stats, err := stage.extractOne(ctx, r, opts, seqs, &atts)
	if err != nil {
		return stats, err
	}
	x.Merge(stage)
	x.commitSequences(seqs)
	x.commitAttributes(atts)
	return stats, nil
}

// attObs is one attribute occurrence in document order. dropped marks
// an occurrence past the per-document distinct-value cap: it counts as
// present and overflows the attribute, but records no value.
type attObs struct {
	elem, att, value string
	dropped          bool
}

// extractOne runs the decode loop over one document, mutating x directly
// except for children sequences and attribute occurrences, which are
// buffered verbatim into the caller-owned seqs map and atts list (in
// document order, so the corpus-wide attribute-value cap keeps the first
// values observed). Callers that need atomicity (refIngest) run it on a
// staging extraction, then Merge the stage and commit the buffers on
// success. Keeping the per-document staging as plain strings means each
// observed sequence is interned exactly once, into the commit target's
// counted sample — a staged sample.Set would intern into a throwaway
// table and force Merge to re-intern on every document. A nil opts
// applies no resource caps.
//
// The context is checked every cancelCheckInterval tokens; on
// cancellation the document fails with ctx.Err(), which callers treat as
// batch abortion rather than a per-document fault. A context that can
// never be cancelled (Done() == nil, e.g. context.Background()) costs
// nothing in the loop.
func (x *Extraction) extractOne(ctx context.Context, r io.Reader, opts *IngestOptions, seqs map[string][][]string, atts *[]attObs) (docStats, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	done := ctx.Done()
	mr := &meteredReader{r: r, max: o.MaxBytes}
	dec := xml.NewDecoder(mr)
	type frame struct {
		name     string
		children []string
	}
	var stack []frame
	var stats docStats
	// names tracks distinct element names only when the cap is on; the
	// uncapped path skips the per-element map traffic entirely.
	var names map[string]bool
	if o.MaxNames > 0 {
		names = make(map[string]bool, 16)
	}
	// docVals holds each element attribute's distinct values this
	// document, for the per-document distinct-value cap.
	docVals := map[[2]string]map[string]bool{}
	for {
		if done != nil && stats.tokens%cancelCheckInterval == 0 {
			select {
			case <-done:
				return stats, ctx.Err()
			default:
			}
		}
		tok, err := dec.Token()
		stats.bytes = mr.n
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return stats, le
			}
			return stats, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		stats.tokens++
		if o.MaxTokens > 0 && stats.tokens > o.MaxTokens {
			return stats, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			stats.elements++
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return stats, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if o.MaxNames > 0 && !names[name] {
				if len(names) >= o.MaxNames {
					return stats, &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: dec.InputOffset()}
				}
				names[name] = true
			}
			if len(stack) == 0 {
				x.Roots[name]++
			} else {
				top := &stack[len(stack)-1]
				top.children = append(top.children, name)
			}
			for _, attr := range t.Attr {
				if attr.Name.Space == "xmlns" || attr.Name.Local == "xmlns" {
					continue
				}
				key := [2]string{name, attr.Name.Local}
				seen := docVals[key]
				if seen == nil {
					seen = map[string]bool{}
					docVals[key] = seen
				}
				dropped := !seen[attr.Value] && len(seen) >= maxAttValues
				if !dropped {
					seen[attr.Value] = true
				}
				*atts = append(*atts, attObs{elem: name, att: attr.Name.Local, value: attr.Value, dropped: dropped})
			}
			stack = append(stack, frame{name: name})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			seqs[top.name] = append(seqs[top.name], top.children)
		case xml.CharData:
			if trimmed := strings.TrimSpace(string(t)); len(stack) > 0 && trimmed != "" {
				name := stack[len(stack)-1].name
				x.HasText[name] = true
				if len(x.TextSamples[name]) < maxTextSamples {
					x.TextSamples[name] = append(x.TextSamples[name], trimmed)
				} else {
					x.TextOverflow[name] = true
				}
			}
		}
	}
	if len(stack) != 0 {
		return stats, fmt.Errorf("dtd: unbalanced XML document")
	}
	x.Documents++
	return stats, nil
}

// commitSequences folds one successfully decoded document's children
// sequences into the accumulator. Within each element the order of
// observation is preserved, so symbols intern in stream order; distinct
// elements have independent samples, so map iteration order is immaterial.
func (x *Extraction) commitSequences(seqs map[string][][]string) {
	for name, list := range seqs {
		s := x.sampleOf(name)
		before := s.ShapeFingerprint()
		for _, w := range list {
			s.Add(w)
		}
		if s.ShapeFingerprint() != before {
			x.markDirty(name)
		}
	}
}

// commitAttributes folds one successfully decoded document's attribute
// occurrences into the accumulator, one at a time in document order.
func (x *Extraction) commitAttributes(atts []attObs) {
	for _, a := range atts {
		x.recordAttribute(a)
	}
}

// recordAttribute folds one attribute occurrence into the statistics,
// mirroring every state change into the element's attribute fingerprint
// and marking the element dirty on a new attribute, a new distinct value
// or an overflow flip: the reference loop's per-value attribute
// recording.
func (x *Extraction) recordAttribute(a attObs) {
	atts := x.Attributes[a.elem]
	if atts == nil {
		atts = map[string]*attStats{}
		x.Attributes[a.elem] = atts
	}
	st := atts[a.att]
	if st == nil {
		st = &attStats{values: map[string]int{}}
		atts[a.att] = st
		x.markDirty(a.elem)
	}
	hp, hov, hval := attNameHashes(a.att)
	st.present++
	x.attFpAdd(a.elem, hp, 1)
	_, seen := st.values[a.value]
	if a.dropped || !seen && len(st.values) >= maxAttValues {
		if !st.overflow {
			st.overflow = true
			x.attFpAdd(a.elem, hov, 1)
			x.markDirty(a.elem)
		}
		return
	}
	if !seen {
		x.markDirty(a.elem)
	}
	st.values[a.value]++
	x.attFpAdd(a.elem, attValueHash(hval, a.value), 1)
}

// refValidate is Validator.ValidateOptions as it ran on encoding/xml:
// the same decode loop and caps, with the namespace-declaration filter
// the old attribute check applied (resolved Name.Space "xmlns", or local
// name "xmlns") before the shared attribute rules.
func (v *Validator) refValidate(r io.Reader, opts *IngestOptions) ([]Violation, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	mr := &meteredReader{r: r, max: o.MaxBytes}
	dec := xml.NewDecoder(mr)
	type frame struct {
		name     string
		children []string
		text     bool
	}
	var stack []frame
	var out []Violation
	var tokens int64
	seenIDs := map[string]bool{}
	var pendingRefs []idref
	report := func(name, reason string) {
		out = append(out, Violation{Element: name, Offset: dec.InputOffset(), Reason: reason})
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return out, le
			}
			return out, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		tokens++
		if o.MaxTokens > 0 && tokens > o.MaxTokens {
			return out, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return out, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if len(stack) == 0 && name != v.dtd.Root {
				report(name, fmt.Sprintf("root is %s, DTD expects %s", name, v.dtd.Root))
			}
			if _, ok := v.dtd.Elements[name]; !ok {
				report(name, "element not declared in DTD")
			}
			var attrs []xmltok.Attr
			for _, attr := range t.Attr {
				if attr.Name.Space == "xmlns" || attr.Name.Local == "xmlns" {
					continue
				}
				attrs = append(attrs, xmltok.Attr{Local: []byte(attr.Name.Local), Value: []byte(attr.Value)})
			}
			pendingRefs = v.checkAttributes(name, attrs, seenIDs, pendingRefs, dec.InputOffset(), report)
			if len(stack) > 0 {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, name)
			}
			stack = append(stack, frame{name: name})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.check(top.name, top.children, top.text, report)
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				stack[len(stack)-1].text = true
			}
		}
	}
	if len(stack) != 0 {
		return out, fmt.Errorf("dtd: unbalanced XML document")
	}
	// IDREFs resolve against the full document's ID set.
	for _, ref := range pendingRefs {
		if !seenIDs[ref.value] {
			out = append(out, Violation{
				Element: ref.element,
				Offset:  ref.offset,
				Reason: fmt.Sprintf("IDREF attribute %s value %q does not match any ID in the document",
					ref.attribute, ref.value),
			})
		}
	}
	return out, nil
}
