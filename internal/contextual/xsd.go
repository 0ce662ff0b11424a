package contextual

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/xmltok"
)

// ToXSD renders the contextual schema as W3C XML Schema: one named
// complexType per inferred type, with child elements declared locally and
// bound to the type of their context — the mechanism by which XML Schema
// exceeds DTD expressiveness, and exactly what the refinement step makes
// well-defined.
func (s *Schema) ToXSD() string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" elementFormDefault="qualified">` + "\n")
	rootType := s.typeOf[Context(s.Root)]
	if rootType != nil {
		fmt.Fprintf(&b, "  <xs:element name=%q type=%q/>\n", s.Root, typeRef(rootType))
	}
	for _, t := range s.Types {
		s.writeType(&b, t)
	}
	b.WriteString("</xs:schema>\n")
	return b.String()
}

// typeRef names a type in the schema; simple kinds map to built-ins.
func typeRef(t *Type) string {
	switch t.Kind {
	case dtd.PCData:
		return "xs:string"
	case dtd.Any:
		return "xs:anyType"
	default:
		return "t-" + t.Name
	}
}

func (s *Schema) writeType(b *strings.Builder, t *Type) {
	switch t.Kind {
	case dtd.PCData, dtd.Any:
		return // built-in reference, nothing to declare
	case dtd.Empty:
		fmt.Fprintf(b, "  <xs:complexType name=%q/>\n", "t-"+t.Name)
	case dtd.Mixed:
		fmt.Fprintf(b, "  <xs:complexType name=%q mixed=\"true\">\n", "t-"+t.Name)
		fmt.Fprintf(b, "    <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n")
		for _, child := range t.MixedNames {
			s.writeLocalElement(b, t, child, "", "      ")
		}
		fmt.Fprintf(b, "    </xs:choice>\n")
		fmt.Fprintf(b, "  </xs:complexType>\n")
	case dtd.Children:
		fmt.Fprintf(b, "  <xs:complexType name=%q>\n", "t-"+t.Name)
		// A complexType's content must be a model group: wrap a bare
		// element reference in a sequence.
		if isSymbolParticle(t.Model) {
			fmt.Fprintf(b, "    <xs:sequence>\n")
			s.writeParticle(b, t, t.Model, occ{1, 1}, "      ")
			fmt.Fprintf(b, "    </xs:sequence>\n")
		} else {
			s.writeParticle(b, t, t.Model, occ{1, 1}, "    ")
		}
		fmt.Fprintf(b, "  </xs:complexType>\n")
	}
}

func isSymbolParticle(e *regex.Expr) bool {
	for {
		switch e.Op {
		case regex.OpSymbol:
			return true
		case regex.OpOpt, regex.OpPlus, regex.OpStar, regex.OpRepeat:
			e = e.Sub()
		default:
			return false
		}
	}
}

type occ struct{ min, max int }

func (o occ) attrs() string {
	out := ""
	if o.min != 1 {
		out += fmt.Sprintf(" minOccurs=%q", strconv.Itoa(o.min))
	}
	switch {
	case o.max == regex.Unbounded:
		out += ` maxOccurs="unbounded"`
	case o.max != 1:
		out += fmt.Sprintf(" maxOccurs=%q", strconv.Itoa(o.max))
	}
	return out
}

func (s *Schema) writeParticle(b *strings.Builder, owner *Type, e *regex.Expr, o occ, indent string) {
	for {
		switch e.Op {
		case regex.OpOpt:
			o.min = 0
			e = e.Sub()
			continue
		case regex.OpPlus:
			o.max = regex.Unbounded
			e = e.Sub()
			continue
		case regex.OpStar:
			o.min, o.max = 0, regex.Unbounded
			e = e.Sub()
			continue
		case regex.OpRepeat:
			o.min, o.max = e.Min, e.Max
			e = e.Sub()
			continue
		}
		break
	}
	switch e.Op {
	case regex.OpSymbol:
		s.writeLocalElement(b, owner, e.Name, o.attrs(), indent)
	case regex.OpConcat:
		fmt.Fprintf(b, "%s<xs:sequence%s>\n", indent, o.attrs())
		for _, sub := range e.Subs {
			s.writeParticle(b, owner, sub, occ{1, 1}, indent+"  ")
		}
		fmt.Fprintf(b, "%s</xs:sequence>\n", indent)
	case regex.OpUnion:
		fmt.Fprintf(b, "%s<xs:choice%s>\n", indent, o.attrs())
		for _, sub := range e.Subs {
			s.writeParticle(b, owner, sub, occ{1, 1}, indent+"  ")
		}
		fmt.Fprintf(b, "%s</xs:choice>\n", indent)
	}
}

// writeLocalElement declares a child element locally, bound to the type of
// the child's context. Thanks to the refinement step the choice of owner
// context is immaterial.
func (s *Schema) writeLocalElement(b *strings.Builder, owner *Type, child, occAttrs, indent string) {
	ct := s.childType(owner, child)
	if ct == nil {
		fmt.Fprintf(b, "%s<xs:element name=%q type=\"xs:anyType\"%s/>\n", indent, child, occAttrs)
		return
	}
	fmt.Fprintf(b, "%s<xs:element name=%q type=%q%s/>\n", indent, child, typeRef(ct), occAttrs)
}

func (s *Schema) childType(owner *Type, child string) *Type {
	if len(owner.Contexts) == 0 {
		return nil
	}
	k := s.k()
	return s.typeOf[childContext(owner.Contexts[0], child, k)]
}

// k recovers the context depth from the assignment (the longest context).
func (s *Schema) k() int {
	max := 0
	for c := range s.typeOf {
		if n := strings.Count(string(c), "/"); n > max {
			max = n
		}
	}
	return max
}

// Validator checks documents against a contextual schema, tracking the
// context of every open element and matching children against the DFA of
// the context's type.
type Validator struct {
	schema *Schema
	k      int
	dfas   map[*Type]*automata.DFA
}

// NewValidator compiles every type's content model.
func NewValidator(s *Schema) *Validator {
	v := &Validator{schema: s, k: s.k(), dfas: map[*Type]*automata.DFA{}}
	for _, t := range s.Types {
		if t.Kind == dtd.Children {
			v.dfas[t] = automata.FromExpr(t.Model)
		}
	}
	return v
}

// Validate parses one document and returns the violations. It reads
// through dtd.DocReader like dtd.Validator, so violation offsets are the
// same input offsets, and each call has its own reader: a Validator is
// safe for concurrent use.
func (v *Validator) Validate(r io.Reader) ([]dtd.Violation, error) {
	rd := dtd.NewDocReader()
	rd.Reset(r, nil)
	type frame struct {
		ctx      Context
		children []string
		text     bool
	}
	var stack []frame
	var out []dtd.Violation
	report := func(element, reason string) {
		out = append(out, dtd.Violation{Element: element, Offset: rd.InputOffset(), Reason: reason})
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
		case xmltok.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.check(top.ctx, top.children, top.text, report)
		case xmltok.CharData:
			if len(stack) > 0 && len(bytes.TrimSpace(rd.Text())) != 0 {
				stack[len(stack)-1].text = true
			}
		}
	}
	return out, nil
}

func (v *Validator) check(ctx Context, children []string, text bool, report func(element, reason string)) {
	t := v.schema.typeOf[ctx]
	if t == nil {
		return // already reported
	}
	name := ctx.Element()
	switch t.Kind {
	case dtd.Empty:
		if len(children) > 0 || text {
			report(name, "EMPTY element has content")
		}
	case dtd.PCData:
		if len(children) > 0 {
			report(name, "text-only element has child elements")
		}
	case dtd.Mixed:
		allowed := map[string]bool{}
		for _, n := range t.MixedNames {
			allowed[n] = true
		}
		for _, c := range children {
			if !allowed[c] {
				report(name, fmt.Sprintf("child %s not allowed in mixed content", c))
			}
		}
	case dtd.Children:
		if text {
			report(name, "character data not allowed in element content")
		}
		if !v.dfas[t].Member(children) {
			report(name, fmt.Sprintf("children %v do not match type %s (%s)",
				children, t.Name, t.Model.DTDString()))
		}
	}
}

// ValidDocument reports whether the document validates.
func (v *Validator) ValidDocument(doc string) bool {
	violations, err := v.Validate(strings.NewReader(doc))
	return err == nil && len(violations) == 0
}
