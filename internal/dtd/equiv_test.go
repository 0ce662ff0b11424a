package dtd

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
)

// Differential testing of the one event source: the stager, reading the
// structure tokenizer (internal/xmltok) through the DocReader, must
// accept exactly the documents the reference encoding/xml extraction
// (reference_test.go) accepts, fail with the same error text up to the
// known differences (errRewrites), and produce byte-identical extraction state on every
// accepted one. decoderEquivCorpus collects the structures the
// extraction layer cares about plus the XML corners where the tokenizer
// and encoding/xml could plausibly diverge.
var decoderEquivCorpus = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<db><rec id="a1" kind="x"><name>n1</name></rec></db>`,
	`<r><a/><b/><a/><a/><b/></r>`,
	`<a><b><c><d/></c></b><b/></a>`,
	// Multiple roots (encoding/xml accepts them) and top-level text.
	`<a/><b/>`,
	` <a/> `,
	`<?xml version="1.0"?><!DOCTYPE r><r/>`,
	// Attributes: duplicates, entities, character references, newlines.
	`<a x="1" y="2"/>`,
	`<a x="1" x="2" x="1"/>`,
	`<a x="&lt;&amp;&gt;&quot;&apos;"/>`,
	`<a x="&#65;&#x42;"/>`,
	`<a x="line1&#10;line2"/>`,
	`<a x="tab&#9;end"/>`,
	"<a x='single &quot; quote'/>",
	`<e a="">text</e>`,
	// Namespace filtering: xmlns declarations are dropped, including the
	// corner where a prefix is bound to the literal value "xmlns".
	`<a xmlns="u" b="1"/>`,
	`<a xmlns:x="u" x:y="1" y="2"/>`,
	`<r xmlns:z="xmlns"><c z:a="1"/></r>`,
	`<r xmlns:z="xmlns"><c xmlns:z="u" z:a="1"/><d z:b="2"/></r>`,
	`<r><c xmlns:z="xmlns" z:a="1" b="2"/><d z:c="3"/></r>`,
	`<r xmlns:z="xmlns"><c xmlns:z="" z:a="1"/></r>`,
	`<a xml:lang="en" q:w="1"/>`,
	`<a xmlns:xml2="xmlns" xml2:x="1"/>`,
	`<a p:xmlns="v" q="1"/>`,
	`<r xmlns:p="u"><c p:xmlns="v" p:q="1"/></r>`,
	`<r xmlns:xml="xmlns"><c xml:a="1"/></r>`,
	`<r xmlns:z="xmlns"><c xmlns:z="u"/><d z:b="2"/></r>`,
	`<a xmlns:="u" b="1"/>`,
	// Prefixed element names record their local part.
	`<x:a xmlns:x="u"><x:b/><y:c/></x:a>`,
	// Text: entities, char refs, CDATA, whitespace trimming, \r\n
	// normalization, mixed content.
	`<a>plain</a>`,
	`<a>  padded  </a>`,
	"<a>\n\t\n</a>",
	`<a>one &amp; two &lt;three&gt;</a>`,
	`<a>&#x48;&#101;llo</a>`,
	"<a>line1\r\nline2\rline3</a>",
	`<a><![CDATA[<not><parsed> &amp; raw]]></a>`,
	`<a>before<![CDATA[ ]]>after</a>`,
	`<a><![CDATA[]]></a>`,
	`<a>t1<b/>t2<b/>t3</a>`,
	`<a>&#xD;</a>`,
	// Comments, PIs, DOCTYPE internal subsets.
	`<!--c--><a/><!--d-->`,
	`<a><!-- inside --><b/></a>`,
	`<!----><a/>`,
	`<?pi data?><a/>`,
	`<a><?target one two?></a>`,
	`<!DOCTYPE r [<!ELEMENT r (a)> <!-- c --> <!ENTITY e "v">]><r><a/></r>`,
	`<!DOCTYPE r [ <!ATTLIST r x CDATA "a>b"> ]><r/>`,
	// UTF-8 multibyte names and values.
	`<日本語><子 属="値"/></日本語>`,
	`<résumé naïve="café">Ü</résumé>`,
	`<a·b/>`,
	// Deep and wide structures.
	strings.Repeat("<d>", 60) + "x" + strings.Repeat("</d>", 60),
	`<r>` + strings.Repeat(`<leaf v="1"/>`, 40) + `</r>`,
	// Rejected inputs: both decoders must turn these away.
	``,
	`not xml`,
	`<a>`,
	`<a><b></a></b>`,
	`<a attr=noquote/>`,
	`<a><b/>`,
	`<a>&undefined;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x110000;</a>`,
	`<a x="unterminated/>`,
	`<1a/>`,
	`<a:b:c/>`,
	`<a>]]></a>`,
	`<a/><`,
	"<a>\xff\xfe</a>",
	`<?xml version="2.0"?><a/>`,
	`<a x="<"/>`,
}

// ingestWith runs one document through the one-worker batch under opts
// into a fresh extraction, returning the extraction, the decode stats
// (from the report) and the document's own error, unwrapped from its
// *DocumentError.
func ingestWith(t *testing.T, doc string, opts *IngestOptions) (*Extraction, docStats, error) {
	t.Helper()
	x := NewExtraction()
	report, err := x.AddDocsParallelContext(context.Background(), []Doc{{R: strings.NewReader(doc)}}, 1, opts, FailFast)
	var derr *DocumentError
	if errors.As(err, &derr) {
		err = derr.Err
	}
	return x, docStats{bytes: report.Bytes, tokens: report.Tokens, elements: report.Elements}, err
}

// errRewrites mask the known differences between the tokenizer's and
// encoding/xml's error messages, applied to both sides before comparing:
// the location (encoding/xml reports a syntax error "on line N", the
// tokenizer "at offset N"), and the wording of three errors — the two
// <?xml?> declaration errors (the tokenizer says "xmltok:" and "only
// utf-8 is supported" where encoding/xml names its Decoder.CharsetReader
// hook) and an end tag whose prefix differs from its start tag's.
var errRewrites = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(on line|at offset) [0-9]+`), "@"},
	{regexp.MustCompile(`xmltok: `), "xml: "},
	{regexp.MustCompile(`Decoder\.CharsetReader is nil`), "only utf-8 is supported"},
	{regexp.MustCompile(`element <([^>]*)> in space .*closed by </([^>]*)> in space \S+`),
		"element <$1> closed by </$2> in another namespace prefix"},
}

// sameErrorText reports whether two errors read the same once the known
// differences are masked.
func sameErrorText(a, b error) bool {
	norm := func(err error) string {
		s := err.Error()
		for _, r := range errRewrites {
			s = r.re.ReplaceAllString(s, r.with)
		}
		return s
	}
	return norm(a) == norm(b)
}

// bytesLimit reports whether err is a violated MaxBytes cap. Where it
// fires depends on the reader's buffer (the tokenizer reads 8 KiB at a
// time, encoding/xml's bufio 4 KiB), so within one buffer of the cap the
// two can report the cap and a later syntax error the other way round;
// both still reject.
func bytesLimit(err error) bool {
	var le *LimitError
	return errors.As(err, &le) && le.Limit == "bytes"
}

// checkDecoderEquivalence asserts that the stager and the reference
// encoding/xml extraction (refIngest) agree on one document under the
// given caps: identical acceptance, the same error text up to the known
// differences, and on acceptance identical extraction state and identical
// byte/token/element counts.
func checkDecoderEquivalence(t *testing.T, doc string, caps IngestOptions) {
	t.Helper()
	xf, sf, errF := ingestWith(t, doc, &caps)
	xr := NewExtraction()
	sr, errR := refIngest(context.Background(), xr, strings.NewReader(doc), &caps)
	if (errF == nil) != (errR == nil) {
		t.Fatalf("acceptance differs for %q:\nstager: %v\nref:    %v", doc, errF, errR)
	}
	if errF != nil {
		if !bytesLimit(errF) && !bytesLimit(errR) && !sameErrorText(errF, errR) {
			t.Fatalf("error differs from reference for %q:\nstager: %v\nref:    %v", doc, errF, errR)
		}
		return
	}
	if got, want := snapshot(xf), snapshot(xr); got != want {
		t.Fatalf("extraction state differs for %q:\nstager:\n%s\nref:\n%s", doc, got, want)
	}
	if sf != sr {
		t.Fatalf("decode stats differ for %q: stager=%+v ref=%+v", doc, sf, sr)
	}
}

func TestFastDecoderEquivalence(t *testing.T) {
	for _, doc := range decoderEquivCorpus {
		checkDecoderEquivalence(t, doc, IngestOptions{})
		checkDecoderEquivalence(t, doc, *DefaultIngestOptions())
		checkDecoderEquivalence(t, doc, IngestOptions{MaxDepth: 20, MaxTokens: 64, MaxNames: 8, MaxBytes: 1 << 10})
	}
}

// TestFastDecoderBatchEquivalence ingests the whole corpus as one batch,
// exercising the stager's cross-document staging reuse (epoch resets,
// leftover state from rejected documents, namespace bindings left open by
// a failed document) that single-document runs cannot reach, and holds
// it to the reference loop.
func TestFastDecoderBatchEquivalence(t *testing.T) {
	x := NewExtraction()
	docs := make([]Doc, len(decoderEquivCorpus))
	for i, s := range decoderEquivCorpus {
		docs[i] = Doc{Label: "doc", R: strings.NewReader(s)}
	}
	report, err := x.AddDocsParallelContext(context.Background(), docs, 1, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	// The reference loop over the same batch, skipping rejections.
	xr := NewExtraction()
	var accepted int
	var tokens, elements int64
	for _, s := range decoderEquivCorpus {
		if stats, err := refIngest(context.Background(), xr, strings.NewReader(s), nil); err == nil {
			accepted++
			tokens += stats.tokens
			elements += stats.elements
		}
	}
	if report.Accepted != accepted || report.Tokens != tokens || report.Elements != elements {
		t.Fatalf("batch counters differ: stager accepted=%d tokens=%d elements=%d, ref accepted=%d tokens=%d elements=%d",
			report.Accepted, report.Tokens, report.Elements, accepted, tokens, elements)
	}
	if got, want := snapshot(x), snapshot(xr); got != want {
		t.Fatalf("batch extraction state differs from reference:\nstager:\n%s\nref:\n%s", got, want)
	}
}

// FuzzTokenizerEquivalence feeds the same bytes through the stager and
// the reference encoding/xml loop and requires identical acceptance, the
// same error text up to the known differences and, on acceptance, identical
// extraction state — both uncapped and under tight resource caps. Run with
// -fuzz=FuzzTokenizerEquivalence; as a unit test it replays the seeds.
func FuzzTokenizerEquivalence(f *testing.F) {
	for _, seed := range decoderEquivCorpus {
		f.Add(seed)
	}
	caps := IngestOptions{MaxDepth: 40, MaxTokens: 4096, MaxNames: 64, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, input string) {
		checkDecoderEquivalence(t, input, IngestOptions{})
		checkDecoderEquivalence(t, input, caps)
	})
}
