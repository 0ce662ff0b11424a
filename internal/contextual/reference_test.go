package contextual

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"dtdinfer/internal/dtd"
)

// The references: the encoding/xml decode loops the package ran before
// the tokenizer became the one XML event source, kept as test code so
// the equivalence tests can hold extract and Validator.Validate to the
// loops they replaced.

// meteredReader is the MaxBytes meter the reference loops read through:
// it fails the stream with a *dtd.LimitError once more than max bytes
// were read.
type meteredReader struct {
	r      io.Reader
	n, max int64
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += int64(n)
	if m.max > 0 && m.n > m.max {
		return n, &dtd.LimitError{Limit: "bytes", Max: m.max, Offset: m.n}
	}
	return n, err
}

// extractOneStd is extract over encoding/xml.
func (x *Extraction) extractOneStd(r io.Reader, o dtd.IngestOptions) error {
	dec := xml.NewDecoder(&meteredReader{r: r, max: o.MaxBytes})
	type frame struct {
		name     string
		ctx      Context
		children []string
	}
	var stack []frame
	var tokens int64
	names := map[string]bool{}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *dtd.LimitError
			if errors.As(err, &le) {
				return le
			}
			return fmt.Errorf("contextual: parsing XML: %w", err)
		}
		tokens++
		if o.MaxTokens > 0 && tokens > o.MaxTokens {
			return &dtd.LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return &dtd.LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if !names[name] {
				if o.MaxNames > 0 && len(names) >= o.MaxNames {
					return &dtd.LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: dec.InputOffset()}
				}
				names[name] = true
			}
			if len(stack) == 0 {
				x.Roots[name]++
			} else {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, name)
			}
			ancestors := make([]string, len(stack))
			for i, f := range stack {
				ancestors[i] = f.name
			}
			stack = append(stack, frame{name: name, ctx: x.context(ancestors, name)})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x.Sequences[top.ctx] = append(x.Sequences[top.ctx], top.children)
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				x.HasText[stack[len(stack)-1].ctx] = true
			}
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("contextual: unbalanced XML document")
	}
	return nil
}

// refValidate is Validator.Validate over encoding/xml, reporting
// encoding/xml's input offsets.
func (v *Validator) refValidate(r io.Reader) ([]dtd.Violation, error) {
	dec := xml.NewDecoder(r)
	type frame struct {
		ctx      Context
		children []string
		text     bool
	}
	var stack []frame
	var out []dtd.Violation
	report := func(element, reason string) {
		out = append(out, dtd.Violation{Element: element, Offset: dec.InputOffset(), Reason: reason})
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, fmt.Errorf("contextual: parsing XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			var ctx Context
			if len(stack) == 0 {
				if name != v.schema.Root {
					report(name, fmt.Sprintf("root is %s, schema expects %s", name, v.schema.Root))
				}
				ctx = Context(name)
			} else {
				top := &stack[len(stack)-1]
				top.children = append(top.children, name)
				ctx = childContext(top.ctx, name, v.k)
			}
			if v.schema.typeOf[ctx] == nil {
				report(name, fmt.Sprintf("no type for context %s", ctx))
			}
			stack = append(stack, frame{ctx: ctx})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.check(top.ctx, top.children, top.text, report)
		case xml.CharData:
			if len(stack) > 0 && len(bytes.TrimSpace(t)) != 0 {
				stack[len(stack)-1].text = true
			}
		}
	}
	if len(stack) != 0 {
		return out, fmt.Errorf("contextual: unbalanced XML document")
	}
	return out, nil
}
