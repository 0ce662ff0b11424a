package dtd

import (
	"errors"
	"fmt"
	"io"

	"dtdinfer/internal/xmltok"
)

// DocReader is the one capped document reader: it drives the structure
// tokenizer (internal/xmltok) over one document at a time and enforces,
// once for every decode loop in the module, what each of them needs
// beyond raw tokens:
//
//   - the MaxBytes, MaxTokens and MaxDepth caps of IngestOptions, each
//     violation a *LimitError (MaxNames stays with the callers, whose
//     name bookkeeping differs);
//   - the unbalanced-document backstop;
//   - the namespace-declaration filter on attributes, binding-aware so
//     it drops exactly what encoding/xml's resolved names would mark as
//     declarations.
//
// Syntax and reader errors come back unwrapped, so each caller keeps its
// own message prefix. The ingestion stager, the contextual extraction
// and both validators read through it. It is exported only for package
// contextual. A DocReader is not safe for concurrent use; Reset reuses
// its buffers across documents.
type DocReader struct {
	tok *xmltok.Tokenizer
	mr  meteredReader

	maxTokens int64
	maxDepth  int
	tokens    int64
	depth     int

	// attrs is the current start tag's attributes with namespace
	// declarations removed: the tokenizer's own slice when nothing was
	// dropped, otherwise the kept entries copied into kept.
	attrs []xmltok.Attr
	kept  []xmltok.Attr

	// nsBind holds the live xmlns prefix bindings (innermost last) and
	// bindLog the prefixes bound by the open elements with the depth that
	// bound them, engaged only when a document declares prefixes. The
	// filter needs them for one corner: an attribute whose prefix is bound
	// to the literal value "xmlns" resolves to Name.Space == "xmlns" under
	// encoding/xml, which makes it a namespace declaration.
	nsBind  map[string][]string
	bindLog []binding
}

type binding struct {
	prefix string
	depth  int
}

// errUnbalanced is the backstop for input that ends with elements still
// open; the tokenizer already reports that as a syntax error.
var errUnbalanced = errors.New("unbalanced XML document")

// NewDocReader returns a reader with an empty input; call Reset.
func NewDocReader() *DocReader {
	return &DocReader{tok: xmltok.NewTokenizer()}
}

// Reset prepares the reader for a new document from r under the caps of
// opts (nil applies none), keeping every buffer.
func (d *DocReader) Reset(r io.Reader, opts *IngestOptions) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	d.mr = meteredReader{r: r, max: o.MaxBytes}
	d.tok.Reset(&d.mr)
	d.maxTokens, d.maxDepth = o.MaxTokens, o.MaxDepth
	d.tokens, d.depth = 0, 0
	d.attrs = nil
	for len(d.bindLog) > 0 {
		d.unbindLast()
	}
}

// Next advances to the next token. At clean end of input it returns
// (EOF, io.EOF). A violated cap is a *LimitError; any other error is the
// tokenizer's or the reader's, unwrapped.
func (d *DocReader) Next() (xmltok.Kind, error) {
	kind, err := d.tok.Next()
	if err == io.EOF {
		if d.depth != 0 {
			return xmltok.EOF, errUnbalanced
		}
		return xmltok.EOF, io.EOF
	}
	if err != nil {
		var le *LimitError
		if errors.As(err, &le) {
			return xmltok.EOF, le
		}
		return xmltok.EOF, err
	}
	d.tokens++
	if d.maxTokens > 0 && d.tokens > d.maxTokens {
		return xmltok.EOF, &LimitError{Limit: "tokens", Max: d.maxTokens, Offset: d.tok.InputOffset()}
	}
	switch kind {
	case xmltok.StartElement:
		if d.maxDepth > 0 && d.depth >= d.maxDepth {
			return xmltok.EOF, &LimitError{Limit: "depth", Max: int64(d.maxDepth), Offset: d.tok.InputOffset()}
		}
		d.depth++
		d.filterAttrs()
	case xmltok.EndElement:
		d.depth--
		for len(d.bindLog) > 0 && d.bindLog[len(d.bindLog)-1].depth > d.depth {
			d.unbindLast()
		}
	}
	return kind, nil
}

// Name returns the local name of the current StartElement or EndElement.
func (d *DocReader) Name() []byte { return d.tok.Name() }

// Attr returns the current StartElement's attributes, namespace
// declarations removed. Valid until the next call to Next.
func (d *DocReader) Attr() []xmltok.Attr { return d.attrs }

// Text returns the current CharData content.
func (d *DocReader) Text() []byte { return d.tok.Text() }

// InputOffset returns the input offset after the current token — the
// same byte position encoding/xml's InputOffset reports.
func (d *DocReader) InputOffset() int64 { return d.tok.InputOffset() }

// Bytes returns the bytes read from the document so far.
func (d *DocReader) Bytes() int64 { return d.mr.n }

// filterAttrs computes Attr for the start tag just read. Prefix bindings
// are registered from every xmlns attribute before any attribute is
// judged, matching encoding/xml's order (a binding applies to the
// attributes of its own element wherever it appears).
func (d *DocReader) filterAttrs() {
	attrs := d.tok.Attr()
	d.attrs = attrs
	drop := false
	for i := range attrs {
		a := &attrs[i]
		if string(a.Prefix) == "xmlns" {
			d.bindPrefix(string(a.Local), string(a.Value))
			drop = true
		} else if string(a.Local) == "xmlns" {
			drop = true
		}
	}
	if !drop && len(d.nsBind) == 0 {
		return
	}
	d.kept = d.kept[:0]
	for i := range attrs {
		if a := &attrs[i]; !d.nsDecl(a) {
			d.kept = append(d.kept, *a)
		}
	}
	d.attrs = d.kept
}

// nsDecl reports whether encoding/xml would resolve the attribute to a
// namespace declaration: Name.Space == "xmlns" (the literal prefix, or a
// prefix bound to the value "xmlns"; "xml" is never looked up) or
// Name.Local == "xmlns".
func (d *DocReader) nsDecl(a *xmltok.Attr) bool {
	if string(a.Prefix) == "xmlns" || string(a.Local) == "xmlns" {
		return true
	}
	return len(a.Prefix) != 0 && string(a.Prefix) != "xml" && d.boundTo(a.Prefix) == "xmlns"
}

func (d *DocReader) bindPrefix(prefix, value string) {
	if d.nsBind == nil {
		d.nsBind = map[string][]string{}
	}
	d.nsBind[prefix] = append(d.nsBind[prefix], value)
	d.bindLog = append(d.bindLog, binding{prefix: prefix, depth: d.depth})
}

func (d *DocReader) unbindLast() {
	p := d.bindLog[len(d.bindLog)-1].prefix
	d.bindLog = d.bindLog[:len(d.bindLog)-1]
	s := d.nsBind[p]
	s = s[:len(s)-1]
	if len(s) == 0 {
		delete(d.nsBind, p)
	} else {
		d.nsBind[p] = s
	}
}

// boundTo returns the innermost binding of prefix ("" when unbound).
func (d *DocReader) boundTo(prefix []byte) string {
	s := d.nsBind[string(prefix)]
	if len(s) == 0 {
		return ""
	}
	return s[len(s)-1]
}

// parseError gives a DocReader error this package's message prefix; a
// *LimitError passes through bare.
func parseError(err error) error {
	if _, ok := err.(*LimitError); ok {
		return err
	}
	return fmt.Errorf("dtd: parsing XML: %w", err)
}

// meteredReader counts bytes and fails the stream once max is exceeded.
type meteredReader struct {
	r   io.Reader
	n   int64
	max int64 // 0 = unlimited
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += int64(n)
	if m.max > 0 && m.n > m.max {
		return n, &LimitError{Limit: "bytes", Max: m.max, Offset: m.n}
	}
	return n, err
}
