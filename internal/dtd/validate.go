package dtd

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/xmltok"
)

// Validator checks XML documents against a DTD, compiling each content
// model into a DFA once. Attribute declarations are enforced too: required
// attributes, enumeration membership, document-wide ID uniqueness, and
// IDREF resolution (every IDREF value must match some ID in the document).
type Validator struct {
	dtd  *DTD
	dfas map[string]*automata.DFA
}

// NewValidator compiles the DTD's content models.
func NewValidator(d *DTD) *Validator {
	v := &Validator{dtd: d, dfas: map[string]*automata.DFA{}}
	for name, e := range d.Elements {
		if e.Type == Children {
			v.dfas[name] = automata.FromExpr(e.Model)
		}
	}
	return v
}

// Violation describes one validation failure.
type Violation struct {
	// Element is the offending element name.
	Element string
	// Offset is the decoder's input offset of the failure — a byte
	// position in the document, not a line number.
	Offset int64
	// Reason describes the failure.
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("element %s at offset %d: %s", v.Element, v.Offset, v.Reason)
}

// idref records one IDREF occurrence for the end-of-document resolution
// check (IDs may legally be declared after the references to them).
type idref struct {
	element   string
	attribute string
	value     string
	offset    int64
}

// Validate parses one document and returns all violations (nil when the
// document is valid). A document whose root differs from the DTD's root is
// a violation; undeclared elements are violations on their parent.
func (v *Validator) Validate(r io.Reader) ([]Violation, error) {
	return v.ValidateOptions(r, nil)
}

// ValidateOptions is Validate with resource caps on the decoder (depth,
// token and byte limits from IngestOptions; MaxNames is not checked since
// validation allocates per declared element, not per observed name). A
// violated cap aborts with a *LimitError, matchable with errors.Is
// against ErrLimit. Each call reads through its own DocReader, so one
// Validator serves concurrent callers.
func (v *Validator) ValidateOptions(r io.Reader, opts *IngestOptions) ([]Violation, error) {
	rd := NewDocReader()
	rd.Reset(r, opts)
	type frame struct {
		name     string
		children []string
		text     bool
	}
	var stack []frame
	var out []Violation
	seenIDs := map[string]bool{}
	var pendingRefs []idref
	report := func(name, reason string) {
		out = append(out, Violation{Element: name, Offset: rd.InputOffset(), Reason: reason})
	}
	for {
		kind, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, parseError(err)
		}
		switch kind {
		case xmltok.StartElement:
			name := string(rd.Name())
			if len(stack) == 0 && name != v.dtd.Root {
				report(name, fmt.Sprintf("root is %s, DTD expects %s", name, v.dtd.Root))
			}
			if _, ok := v.dtd.Elements[name]; !ok {
				report(name, "element not declared in DTD")
			}
			pendingRefs = v.checkAttributes(name, rd.Attr(), seenIDs, pendingRefs, rd.InputOffset(), report)
			if len(stack) > 0 {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, name)
			}
			stack = append(stack, frame{name: name})
		case xmltok.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.check(top.name, top.children, top.text, report)
		case xmltok.CharData:
			if len(stack) > 0 && len(bytes.TrimSpace(rd.Text())) != 0 {
				stack[len(stack)-1].text = true
			}
		}
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

func (v *Validator) check(name string, children []string, text bool, report func(name, reason string)) {
	e := v.dtd.Elements[name]
	if e == nil {
		return // already reported at the start tag
	}
	switch e.Type {
	case Any:
	case Empty:
		if len(children) > 0 || text {
			report(name, "EMPTY element has content")
		}
	case PCData:
		if len(children) > 0 {
			report(name, fmt.Sprintf("(#PCDATA) element has child elements %v", children))
		}
	case Mixed:
		allowed := map[string]bool{}
		for _, n := range e.MixedNames {
			allowed[n] = true
		}
		for _, c := range children {
			if !allowed[c] {
				report(name, fmt.Sprintf("child %s not allowed in mixed content", c))
			}
		}
	case Children:
		if text {
			report(name, "character data not allowed in element content")
		}
		if !v.dfas[name].Member(children) {
			report(name, fmt.Sprintf("children %v do not match (%s)",
				children, e.Model.DTDString()))
		}
	}
}

// checkAttributes validates one start tag's attributes (namespace
// declarations already removed by the DocReader): undeclared names,
// missing required attributes, enumeration membership, and ID uniqueness
// within the document. IDREF values cannot be judged until the whole
// document's IDs are known, so they are appended to pendingRefs and the
// updated slice is returned for resolution at end of document.
func (v *Validator) checkAttributes(name string, attrs []xmltok.Attr,
	seenIDs map[string]bool, pendingRefs []idref, offset int64,
	report func(name, reason string)) []idref {
	e := v.dtd.Elements[name]
	if e == nil {
		return pendingRefs
	}
	declared := map[string]*Attribute{}
	for _, a := range e.Attributes {
		declared[a.Name] = a
	}
	present := map[string]bool{}
	for _, attr := range attrs {
		an, value := string(attr.Local), string(attr.Value)
		present[an] = true
		decl := declared[an]
		if decl == nil {
			report(name, fmt.Sprintf("attribute %s not declared", an))
			continue
		}
		switch decl.Type {
		case Enumerated:
			ok := false
			for _, val := range decl.Values {
				if value == val {
					ok = true
				}
			}
			if !ok {
				report(name, fmt.Sprintf("attribute %s value %q not in enumeration %v",
					an, value, decl.Values))
			}
		case ID:
			if seenIDs[value] {
				report(name, fmt.Sprintf("duplicate ID %q", value))
			}
			seenIDs[value] = true
		case IDREF:
			pendingRefs = append(pendingRefs, idref{
				element: name, attribute: an, value: value, offset: offset,
			})
		}
	}
	for _, a := range e.Attributes {
		if a.Required && !present[a.Name] {
			report(name, fmt.Sprintf("required attribute %s missing", a.Name))
		}
	}
	return pendingRefs
}

// ValidDocument is a convenience wrapper reporting only whether the
// document is valid.
func (v *Validator) ValidDocument(doc string) bool {
	vs, err := v.Validate(strings.NewReader(doc))
	return err == nil && len(vs) == 0
}
