package xmltok

import (
	"encoding/xml"
	"io"
)

// Source is the token stream extraction reads: either the Tokenizer
// itself, or encoding/xml adapted to the Tokenizer's shape. Both yield
// the same Kinds with the same accessors, so one decode loop serves both
// decoders; the only per-token cost of the choice is one branch in
// Next. The std adapter writes its tokens into the same fields the
// Tokenizer fills, so Name, Attr, Text and InputOffset never branch.
//
// The adapter maps every encoding/xml token to a Kind (Comment, ProcInst
// and Directive included, so token counts agree across decoders),
// reports local names, and applies encoding/xml's own namespace filter
// to attributes: an attribute whose resolved Name.Space is "xmlns" or
// whose local name is "xmlns" is a namespace declaration and is dropped.
// Attr prefixes are always empty on the std source — encoding/xml has
// already resolved them. The Tokenizer, by contrast, reports every
// attribute with its raw prefix and leaves the filter to the caller.
type Source struct {
	tok Tokenizer
	// dec is the encoding/xml decoder of the current document; nil on a
	// fast source.
	dec *xml.Decoder
	std bool
	// arena backs the current std StartElement's name and attributes.
	arena []byte
}

// NewSource returns a token source over the Tokenizer, or over
// encoding/xml when std is set. Reset it before each document.
func NewSource(std bool) *Source {
	if std {
		return &Source{std: true}
	}
	return &Source{tok: *NewTokenizer()}
}

// Reset prepares the source to read a new document from r, keeping the
// Tokenizer's buffers. encoding/xml decoders cannot be reset, so the std
// source builds a fresh one per document.
func (s *Source) Reset(r io.Reader) {
	if !s.std {
		s.tok.Reset(r)
		return
	}
	s.dec = xml.NewDecoder(r)
	s.tok.offset = 0
	s.tok.name, s.tok.text, s.tok.attrs = nil, nil, s.tok.attrs[:0]
}

// Next advances to the next token, with the Tokenizer's contract: at
// clean end of input it returns (EOF, io.EOF); errors are the decoder's
// own (*SyntaxError on the fast source, *xml.SyntaxError or the reader's
// error on the std source).
func (s *Source) Next() (Kind, error) {
	if !s.std {
		return s.tok.Next()
	}
	return s.nextStd()
}

// Name returns the local name of the current StartElement or EndElement.
func (s *Source) Name() []byte { return s.tok.name }

// Attr returns the current StartElement's attributes; see Source for
// how the two decoders differ on namespace declarations.
func (s *Source) Attr() []Attr { return s.tok.attrs }

// Text returns the current CharData content.
func (s *Source) Text() []byte { return s.tok.text }

// InputOffset returns the decoder's input offset after the current token.
func (s *Source) InputOffset() int64 { return s.tok.offset }

// nsDecl is encoding/xml extraction's namespace-declaration filter.
func nsDecl(a *xml.Attr) bool { return a.Name.Space == "xmlns" || a.Name.Local == "xmlns" }

func (s *Source) nextStd() (Kind, error) {
	t := &s.tok
	t.name, t.text, t.attrs = nil, nil, t.attrs[:0]
	tok, err := s.dec.Token()
	t.offset = s.dec.InputOffset()
	if err != nil {
		return EOF, err
	}
	switch v := tok.(type) {
	case xml.StartElement:
		// Copy the name and the kept attributes into one arena, then
		// slice it once the arena has stopped growing.
		s.arena = append(s.arena[:0], v.Name.Local...)
		for i := range v.Attr {
			if a := &v.Attr[i]; !nsDecl(a) {
				s.arena = append(s.arena, a.Name.Local...)
				s.arena = append(s.arena, a.Value...)
			}
		}
		off := len(v.Name.Local)
		t.name = s.arena[:off:off]
		for i := range v.Attr {
			a := &v.Attr[i]
			if nsDecl(a) {
				continue
			}
			l, n := off+len(a.Name.Local), off+len(a.Name.Local)+len(a.Value)
			t.attrs = append(t.attrs, Attr{Local: s.arena[off:l:l], Value: s.arena[l:n:n]})
			off = n
		}
		return StartElement, nil
	case xml.EndElement:
		s.arena = append(s.arena[:0], v.Name.Local...)
		t.name = s.arena
		return EndElement, nil
	case xml.CharData:
		t.text = v
		return CharData, nil
	case xml.Comment:
		return Comment, nil
	case xml.ProcInst:
		return ProcInst, nil
	default: // xml.Directive
		return Directive, nil
	}
}
