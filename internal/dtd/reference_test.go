package dtd

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The reference extraction: the encoding/xml decode loop production
// ingestion ran before both decoders became token sources for one
// stager. It is kept verbatim as test code so the decoder-equivalence
// suites can hold the stager, on either source, to the extraction it
// replaced.

// refIngest ingests one document through the reference loop into x,
// failure-atomically: stage into a scratch extraction plus verbatim
// sequence buffers, then Merge and commit the sequences on success.
func refIngest(ctx context.Context, x *Extraction, r io.Reader, opts *IngestOptions) (docStats, error) {
	stage := NewExtraction()
	seqs := map[string][][]string{}
	stats, err := stage.extractOne(ctx, r, opts, seqs)
	if err != nil {
		return stats, err
	}
	x.Merge(stage)
	x.commitSequences(seqs)
	return stats, nil
}

// extractOne runs the decode loop over one document, mutating x directly
// except for children sequences, which are buffered as verbatim strings
// into the caller-owned seqs map. Callers that need atomicity (refIngest)
// run it on a staging extraction, then Merge the stage and commit the
// buffered sequences on success. Keeping the per-document staging as plain strings means each
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
func (x *Extraction) extractOne(ctx context.Context, r io.Reader, opts *IngestOptions, seqs map[string][][]string) (docStats, error) {
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
				x.recordAttribute(name, attr.Name.Local, attr.Value)
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
