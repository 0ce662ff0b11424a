package datagen

import (
	"fmt"
	"strings"

	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
)

// DocGenerator synthesizes XML documents conforming to a DTD, the
// document-level counterpart of the string sampler (our stand-in for
// ToXgene). Recursion is depth-bounded: beyond MaxDepth, optional content
// is dropped and repetitions are minimized so documents stay finite even
// for recursive DTDs.
type DocGenerator struct {
	DTD *dtd.DTD
	// Sampler drives all random choices.
	Sampler *Sampler
	// MaxDepth bounds element nesting; 0 means 12.
	MaxDepth int
	// Text supplies character data for (#PCDATA) elements; nil uses a
	// fixed placeholder.
	Text func(element string) string
}

// Generate returns one document as a string.
func (g *DocGenerator) Generate() string {
	var b strings.Builder
	g.element(&b, g.DTD.Root, 0)
	return b.String()
}

// GenerateN returns n documents.
func (g *DocGenerator) GenerateN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Generate()
	}
	return out
}

func (g *DocGenerator) maxDepth() int {
	if g.MaxDepth == 0 {
		return 12
	}
	return g.MaxDepth
}

func (g *DocGenerator) text(name string) string {
	if g.Text != nil {
		return g.Text(name)
	}
	return "text"
}

func (g *DocGenerator) element(b *strings.Builder, name string, depth int) {
	e := g.DTD.Elements[name]
	if e == nil || e.Type == dtd.Empty {
		fmt.Fprintf(b, "<%s/>", name)
		return
	}
	fmt.Fprintf(b, "<%s>", name)
	switch e.Type {
	case dtd.PCData, dtd.Any:
		b.WriteString(xmlEscape(g.text(name)))
	case dtd.Mixed:
		b.WriteString(xmlEscape(g.text(name)))
		if depth < g.maxDepth() && len(e.MixedNames) > 0 && g.Sampler.Rng.Intn(2) == 0 {
			child := e.MixedNames[g.Sampler.Rng.Intn(len(e.MixedNames))]
			g.element(b, child, depth+1)
			b.WriteString(xmlEscape(g.text(name)))
		}
	case dtd.Children:
		var children []string
		if depth >= g.maxDepth() {
			children = minimalString(e.Model)
		} else {
			children = g.Sampler.Sample(e.Model)
		}
		for _, c := range children {
			g.element(b, c, depth+1)
		}
	}
	fmt.Fprintf(b, "</%s>", name)
}

// xmlEscaper is built once: a strings.Replacer's setup costs far more
// than escaping one short text value.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func xmlEscape(s string) string { return xmlEscaper.Replace(s) }

// minimalString returns a shortest derivation of e, used to terminate
// recursive content models at the depth bound.
func minimalString(e *regex.Expr) []string {
	switch e.Op {
	case regex.OpSymbol:
		return []string{e.Name}
	case regex.OpConcat:
		var out []string
		for _, s := range e.Subs {
			out = append(out, minimalString(s)...)
		}
		return out
	case regex.OpUnion:
		best := minimalString(e.Subs[0])
		for _, s := range e.Subs[1:] {
			if m := minimalString(s); len(m) < len(best) {
				best = m
			}
		}
		return best
	case regex.OpOpt, regex.OpStar:
		return nil
	case regex.OpPlus:
		return minimalString(e.Sub())
	case regex.OpRepeat:
		var out []string
		m := minimalString(e.Sub())
		for i := 0; i < e.Min; i++ {
			out = append(out, m...)
		}
		return out
	}
	return nil
}
