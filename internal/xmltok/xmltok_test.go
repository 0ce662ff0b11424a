package xmltok

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// event is one token in normalized form, comparable across the fast
// tokenizer and the encoding/xml oracle. Attribute prefixes are omitted:
// encoding/xml reports post-translation namespace URLs, not raw
// prefixes, so prefix behaviour is asserted by targeted tests instead.
type event struct {
	kind  Kind
	name  string   // StartElement/EndElement local name
	text  string   // CharData content
	attrs []string // "local=value" per attribute, in order
	off   int64    // decoder input offset after the token
}

func (e event) String() string {
	return fmt.Sprintf("{%d %q %q %v @%d}", e.kind, e.name, e.text, e.attrs, e.off)
}

// tokenStream is what driveTok reads: the Tokenizer or a Source.
type tokenStream interface {
	Next() (Kind, error)
	Name() []byte
	Attr() []Attr
	Text() []byte
	InputOffset() int64
}

// driveTok runs the fast tokenizer to completion.
func driveTok(t *Tokenizer, data string) ([]event, error) {
	t.Reset(strings.NewReader(data))
	return drive(t)
}

// driveSource runs a token source to completion.
func driveSource(s *Source, data string) ([]event, error) {
	s.Reset(strings.NewReader(data))
	return drive(s)
}

func drive(t tokenStream) ([]event, error) {
	var evs []event
	for {
		kind, err := t.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		ev := event{kind: kind, off: t.InputOffset()}
		switch kind {
		case StartElement:
			ev.name = string(t.Name())
			for _, a := range t.Attr() {
				ev.attrs = append(ev.attrs, string(a.Local)+"="+string(a.Value))
			}
		case EndElement:
			ev.name = string(t.Name())
		case CharData:
			ev.text = string(t.Text())
		}
		evs = append(evs, ev)
	}
}

// driveStd runs the encoding/xml oracle to completion in strict mode.
// With nsFilter set it drops namespace declarations the way extraction
// does (resolved Name.Space "xmlns", or local name "xmlns").
func driveStd(data string, nsFilter bool) ([]event, error) {
	dec := xml.NewDecoder(strings.NewReader(data))
	var evs []event
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		off := dec.InputOffset()
		switch t := tok.(type) {
		case xml.StartElement:
			ev := event{kind: StartElement, name: t.Name.Local, off: off}
			for _, a := range t.Attr {
				if nsFilter && (a.Name.Space == "xmlns" || a.Name.Local == "xmlns") {
					continue
				}
				ev.attrs = append(ev.attrs, a.Name.Local+"="+a.Value)
			}
			evs = append(evs, ev)
		case xml.EndElement:
			evs = append(evs, event{kind: EndElement, name: t.Name.Local, off: off})
		case xml.CharData:
			evs = append(evs, event{kind: CharData, text: string(t), off: off})
		case xml.Comment:
			evs = append(evs, event{kind: Comment, off: off})
		case xml.ProcInst:
			evs = append(evs, event{kind: ProcInst, off: off})
		case xml.Directive:
			evs = append(evs, event{kind: Directive, off: off})
		}
	}
}

// sameEvents compares token streams, offsets excluded (the decoders
// count consumed bytes differently).
func sameEvents(a, b []event) bool {
	return sameTokens(a, b, true)
}

// sameTokens compares kinds, names and text, and attributes when attrs
// is set.
func sameTokens(a, b []event, attrs bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].name != b[i].name || a[i].text != b[i].text {
			return false
		}
		if !attrs {
			continue
		}
		if len(a[i].attrs) != len(b[i].attrs) {
			return false
		}
		for j := range a[i].attrs {
			if a[i].attrs[j] != b[i].attrs[j] {
				return false
			}
		}
	}
	return true
}

// equivalenceCorpus is the shared battery of tricky documents — valid
// and invalid — that both the table test and the fuzz seeds use.
var equivalenceCorpus = []string{
	// Plain structure.
	"<a/>",
	"<a></a>",
	"<a><b/><c>x</c></a>",
	"<root><mid><leaf>text</leaf></mid><leaf/></root>",
	"<a>one<b/>two</a>",
	"  <a/>  ",
	"text only, no markup",
	"<a/><b/>",          // multiple roots: accepted by encoding/xml
	"leading<a/>middle", // top-level text around a root
	"",

	// Attributes.
	`<a x="1" y='2'/>`,
	`<a x="a&amp;b"/>`,
	`<a x="&lt;&gt;&apos;&quot;&amp;"/>`,
	`<a x="&#65;&#x42;"/>`,
	`<a x="]]>"/>`, // ]]> is legal inside quoted values
	`<a x="tab&#9;end"/>`,
	`<a x=""/>`,
	`<a x="1" x="1"/>`, // duplicate attrs are not rejected
	`<a x=1/>`,         // unquoted: strict error
	`<a x/>`,           // missing =: strict error
	`<a x="1'/>`,       // mismatched quote: unexpected EOF
	`<a x="<"/>`,       // unescaped < in value
	`<a ="1"/>`,
	"<a x=\"new\nline\"/>",
	"<a x=\"cr\rend\"/>",

	// Entities and character references in text.
	"<a>&lt;tag&gt;</a>",
	"<a>&amp;&apos;&quot;</a>",
	"<a>&#65;&#x41;&#x6a;</a>",
	"<a>&#xD;</a>", // entity-produced \r is NOT newline-normalized
	"<a>&#x20AC;</a>",
	"<a>&#xD800;</a>",                // surrogate: becomes U+FFFD, accepted
	"<a>&#x110000;</a>",              // beyond MaxRune: rejected
	"<a>&#99999999999999999999;</a>", // overflow: rejected
	"<a>&unknown;</a>",
	"<a>&lt</a>",  // missing semicolon
	"<a>&;</a>",   // empty entity
	"<a>&#;</a>",  // empty char ref
	"<a>&#x;</a>", // empty hex ref
	"<a>& lt;</a>",
	"<a>&lt ;</a>",

	// Newline normalization.
	"<a>line1\r\nline2</a>",
	"<a>line1\rline2</a>",
	"<a>line1\r\rline2</a>",
	"<a>line1\n\rline2</a>",
	"<a>\r</a>",
	"<a>\r\n</a>",

	// CDATA.
	"<a><![CDATA[hello]]></a>",
	"<a><![CDATA[]]></a>",
	"<a><![CDATA[<not><tags>&amp;]]></a>",
	"<a><![CDATA[a]]b]]></a>",
	"<a><![CDATA[\r\nx\r]]></a>",
	"<a><![CDATA[unterminated</a>",
	"<a><![CDAT[x]]></a>",
	"<a>plain ]]> text</a>", // ]]> outside CDATA: rejected
	"<a>] ]></a>",
	"<a>]]</a>",

	// Comments.
	"<a><!-- a comment --></a>",
	"<!--c--><a/>",
	"<a><!----></a>",
	"<a><!-- -- --></a>", // -- inside comment: rejected
	"<a><!----->",        // ---> : rejected
	"<a><!--unterminated</a>",
	"<a>x<!--c-->y</a>", // comment splits CharData

	// Processing instructions.
	"<?xml version=\"1.0\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>",
	"<?xml version=\"1.1\"?><a/>",                     // unsupported version
	"<?xml version=\"1.0\" encoding=\"latin1\"?><a/>", // unsupported encoding
	"<?xml?><a/>",
	"<a><?xml version=\"1.1\"?></a>", // version checked anywhere
	"<?target some data?><a/>",
	"<a>x<?pi?>y</a>", // PI splits CharData
	"<?pi unterminated<a/>",
	"<? x?><a/>", // missing target name
	"<a><?pi a?b?>c</a>",

	// Directives / DOCTYPE.
	"<!DOCTYPE doc><a/>",
	"<!DOCTYPE doc SYSTEM \"doc.dtd\"><a/>",
	"<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)>]><a/>",
	"<!DOCTYPE doc [<!ENTITY e \"v\"><!ATTLIST a x CDATA #IMPLIED>]><a/>",
	"<!DOCTYPE doc [ <!-- comment with > inside --> ]><a/>",
	"<!DOCTYPE doc \"quoted > bracket\"><a/>",
	"<!DOCTYPE doc 'single > quote'><a/>",
	"<!DOCTYPE doc [<!E a><!E b>]><a/>",
	"<!DOCTYPE unterminated [<a/>",
	"<!>x><a/>",
	"<!\"x\"><a/>",
	"<a><!-</a>",

	// Names: namespaces, colons, unicode.
	"<x:a xmlns:x=\"u\"><x:b/></x:a>",
	"<a:b></a:b>",
	"<a:b></b>", // prefix mismatch
	"<a:b:c/>",  // two colons: rejected
	"<:a/>",     // leading colon: local is ":a"
	"<:a></:a>",
	"<a:/>", // trailing colon: local is "a:"
	"<1a/>", // digit start: invalid name
	"<.a/>", // dot start: invalid name
	"<-a/>",
	"<a.b-c_d/>",
	"<\u00e9l\u00e9ment/>",      // Latin-1 letters
	"<\u65e5\u672c\u8a9e/>",     // CJK name
	"<a \u00e9=" + `"v"` + "/>", // unicode attribute name
	"<\u0301bad/>",              // combining mark start: invalid
	"<a\xff/>",                  // invalid UTF-8 in name
	"<a xmlns=\"d\"><b/></a>",
	"<a xmlns:x=\"u\" x:y=\"1\"/>",

	// Structure errors.
	"<a><b></a></b>",
	"<a></b>",
	"</a>",
	"<a>",
	"<a><b>",
	"<a",
	"<",
	"<>",
	"< a/>",
	"<a/ >",
	"<a / >",
	"<a//>",
	"<a>x",     // text then EOF with open element
	"<a></a >", // space before > in end tag is fine
	"<a></ a>", // space before name in end tag is not a name start

	// Character validity.
	"<a>\x00</a>",
	"<a>\x0b</a>",
	"<a>\xc3\x28</a>",     // invalid UTF-8 in text
	"<a>\xef\xbf\xbe</a>", // U+FFFE: outside Char range
	"<a x=\"\x00\"/>",
	"<a>\xf0\x9f\x98\x80</a>", // emoji: fine
}

func TestTokenizerEquivalence(t *testing.T) {
	tok := NewTokenizer()
	for _, doc := range equivalenceCorpus {
		fastEvs, fastErr := driveTok(tok, doc)
		stdEvs, stdErr := driveStd(doc, false)
		if (fastErr != nil) != (stdErr != nil) {
			t.Errorf("doc %q: fast err = %v, std err = %v", doc, fastErr, stdErr)
			continue
		}
		if fastErr != nil {
			// Both reject: the token prefixes before the error must agree.
			if !sameEvents(fastEvs, stdEvs) {
				t.Errorf("doc %q: prefix mismatch before error\nfast: %v (%v)\nstd:  %v (%v)",
					doc, fastEvs, fastErr, stdEvs, stdErr)
			}
			continue
		}
		if !sameEvents(fastEvs, stdEvs) {
			t.Errorf("doc %q:\nfast: %v\nstd:  %v", doc, fastEvs, stdEvs)
		}
	}
}

// TestTokenizerBufferBoundaries shifts a document across the internal
// read-buffer boundary so every special byte lands on a chunk edge at
// least once, and also feeds it one byte at a time.
func TestTokenizerBufferBoundaries(t *testing.T) {
	doc := `<root a="v&amp;1"><!-- c --><x:kid xmlns:x="u">text &#65;</x:kid>` +
		"<k><![CDATA[cd]]x]]></k>\r\n</root>"
	want, err := driveStd(strings.Repeat(" ", 7)+doc, false)
	if err != nil {
		t.Fatal(err)
	}
	tok := NewTokenizer()
	for pad := readBufSize - len(doc) - 4; pad < readBufSize+4; pad++ {
		if pad < 0 {
			continue
		}
		in := strings.Repeat(" ", pad) + doc
		got, err := driveTok(tok, in)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		// Strip the leading whitespace CharData and compare the rest.
		wantTail, gotTail := want[1:], got[1:]
		if !sameEvents(gotTail, wantTail) {
			t.Fatalf("pad %d:\ngot:  %v\nwant: %v", pad, gotTail, wantTail)
		}
	}
	// One byte at a time.
	tok.Reset(&oneByteReader{data: doc})
	var kinds []Kind
	for {
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("byte-at-a-time: %v", err)
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		t.Fatal("no tokens from byte-at-a-time reader")
	}
}

// oneByteReader yields one byte per Read call.
type oneByteReader struct {
	data string
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

func TestTokenizerPrefixes(t *testing.T) {
	tok := NewTokenizer()
	tok.Reset(strings.NewReader(`<a xmlns:x="u" x:p="1" q="2" xmlns="d" :odd="3"/>`))
	kind, err := tok.Next()
	if err != nil || kind != StartElement {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	attrs := tok.Attr()
	type pl struct{ prefix, local string }
	want := []pl{{"xmlns", "x"}, {"x", "p"}, {"", "q"}, {"", "xmlns"}, {"", ":odd"}}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(want))
	}
	for i, w := range want {
		if string(attrs[i].Prefix) != w.prefix || string(attrs[i].Local) != w.local {
			t.Errorf("attr %d = %q:%q, want %q:%q",
				i, attrs[i].Prefix, attrs[i].Local, w.prefix, w.local)
		}
	}
}

// TestTokenizerReuseAllocs verifies the whole point of the package: after
// warmup, tokenizing a document through a Reset tokenizer performs zero
// allocations.
func TestTokenizerReuseAllocs(t *testing.T) {
	doc := `<proteinDatabase><entry id="1"><name>abc&amp;def</name>` +
		`<organism>E. coli</organism><!-- note --><seq>MKV</seq></entry>` +
		`<entry id="2"><name>x</name></entry></proteinDatabase>`
	tok := NewTokenizer()
	r := strings.NewReader(doc)
	drain := func() {
		r.Reset(doc)
		tok.Reset(r)
		for {
			_, err := tok.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm buffers
	if allocs := testing.AllocsPerRun(50, drain); allocs > 0 {
		t.Errorf("tokenize allocated %.1f times per document, want 0", allocs)
	}
}

// checkSources drives both token sources over one document. The std
// source must reproduce encoding/xml exactly — kinds, names, filtered
// attributes, text, offsets and the error — and agree with the
// Tokenizer on acceptance, kinds, names and text. The fast source must
// be the Tokenizer, offsets included.
func checkSources(t *testing.T, fast, std *Source, tok *Tokenizer, doc string) {
	t.Helper()
	srcEvs, srcErr := driveSource(std, doc)
	refEvs, refErr := driveStd(doc, true)
	if fmt.Sprint(srcErr) != fmt.Sprint(refErr) {
		t.Fatalf("doc %q: std source err = %v, encoding/xml err = %v", doc, srcErr, refErr)
	}
	if fmt.Sprint(srcEvs) != fmt.Sprint(refEvs) {
		t.Fatalf("doc %q: std source diverges from encoding/xml:\nsource: %v\nstd:    %v", doc, srcEvs, refEvs)
	}
	tokEvs, tokErr := driveTok(tok, doc)
	if (tokErr != nil) != (srcErr != nil) {
		t.Fatalf("doc %q: accept/reject mismatch: tokenizer err = %v, std source err = %v", doc, tokErr, srcErr)
	}
	if !sameTokens(tokEvs, srcEvs, false) {
		t.Fatalf("doc %q: std source diverges from tokenizer:\ntok:    %v\nsource: %v", doc, tokEvs, srcEvs)
	}
	fastEvs, fastErr := driveSource(fast, doc)
	if fmt.Sprint(fastErr) != fmt.Sprint(tokErr) || fmt.Sprint(fastEvs) != fmt.Sprint(tokEvs) {
		t.Fatalf("doc %q: fast source diverges from tokenizer:\nsource: %v (%v)\ntok:    %v (%v)",
			doc, fastEvs, fastErr, tokEvs, tokErr)
	}
}

func TestSourceEquivalence(t *testing.T) {
	fast, std, tok := NewSource(false), NewSource(true), NewTokenizer()
	for _, doc := range equivalenceCorpus {
		checkSources(t, fast, std, tok, doc)
	}
}

// FuzzStreamEquivalence cross-checks the raw token stream against
// encoding/xml on arbitrary bytes, and drives the std token source
// against both (see checkSources). The dtd-level differential target
// (FuzzTokenizerEquivalence) covers extraction state; this one catches
// divergence in tokens extraction happens to ignore.
func FuzzStreamEquivalence(f *testing.F) {
	for _, doc := range equivalenceCorpus {
		f.Add(doc)
	}
	tok := NewTokenizer()
	fast, std := NewSource(false), NewSource(true)
	f.Fuzz(func(t *testing.T, doc string) {
		fastEvs, fastErr := driveTok(tok, doc)
		stdEvs, stdErr := driveStd(doc, false)
		if (fastErr != nil) != (stdErr != nil) {
			t.Fatalf("accept/reject mismatch: fast err = %v, std err = %v", fastErr, stdErr)
		}
		if !sameEvents(fastEvs, stdEvs) {
			t.Fatalf("token streams diverge:\nfast: %v\nstd:  %v", fastEvs, stdEvs)
		}
		checkSources(t, fast, std, tok, doc)
	})
}
