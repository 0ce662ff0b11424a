package dtd

import (
	"context"
	"strings"
	"testing"
)

// Differential testing of the two token sources: the stager on the fast
// structure tokenizer (internal/xmltok) and on the encoding/xml source
// must accept exactly the documents the reference encoding/xml
// extraction (reference_test.go) accepts and produce byte-identical
// extraction state on every accepted one. decoderEquivCorpus collects the structures the
// extraction layer cares about plus the XML corners where the two
// decoders could plausibly diverge.
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

// ingestWith runs one document through the stager on the decoder opts
// selects into a fresh extraction, returning the extraction, the decode
// stats and the error.
func ingestWith(t *testing.T, doc string, opts *IngestOptions) (*Extraction, docStats, error) {
	t.Helper()
	x := NewExtraction()
	stats, err := newStager(opts).ingestOne(context.Background(), strings.NewReader(doc), opts, x)
	return x, stats, err
}

// checkDecoderEquivalence asserts that the stager on the fast source,
// the stager on the std source and the reference encoding/xml extraction
// (refIngest) agree on one document under the given caps: identical
// acceptance, and on acceptance identical extraction state and identical
// byte/token/element counts.
func checkDecoderEquivalence(t *testing.T, doc string, caps IngestOptions) {
	t.Helper()
	fastOpts, stdOpts := caps, caps
	fastOpts.Decoder = DecoderFast
	stdOpts.Decoder = DecoderStd
	xf, sf, errF := ingestWith(t, doc, &fastOpts)
	xs, ss, errS := ingestWith(t, doc, &stdOpts)
	xr := NewExtraction()
	sr, errR := refIngest(context.Background(), xr, strings.NewReader(doc), &caps)
	if (errF == nil) != (errR == nil) || (errS == nil) != (errR == nil) {
		t.Fatalf("acceptance differs for %q:\nfast: %v\nstd:  %v\nref:  %v", doc, errF, errS, errR)
	}
	if errS != nil && errS.Error() != errR.Error() {
		t.Fatalf("std source error differs from reference for %q:\nstd: %v\nref: %v", doc, errS, errR)
	}
	if errF != nil {
		return
	}
	want := snapshot(xr)
	if got := snapshot(xf); got != want {
		t.Fatalf("fast extraction state differs for %q:\nfast:\n%s\nref:\n%s", doc, got, want)
	}
	if got := snapshot(xs); got != want {
		t.Fatalf("std extraction state differs for %q:\nstd:\n%s\nref:\n%s", doc, got, want)
	}
	if sf != sr || ss != sr {
		t.Fatalf("decode stats differ for %q: fast=%+v std=%+v ref=%+v", doc, sf, ss, sr)
	}
}

func TestFastDecoderEquivalence(t *testing.T) {
	for _, doc := range decoderEquivCorpus {
		checkDecoderEquivalence(t, doc, IngestOptions{})
		checkDecoderEquivalence(t, doc, *DefaultIngestOptions())
		checkDecoderEquivalence(t, doc, IngestOptions{MaxDepth: 20, MaxTokens: 64, MaxNames: 8, MaxBytes: 1 << 10})
	}
}

// TestFastDecoderBatchEquivalence ingests the whole corpus as one batch
// per decoder, exercising the stager's cross-document staging reuse
// (epoch resets, leftover state from rejected documents) that single-
// document runs cannot reach, and holds both to the reference loop.
func TestFastDecoderBatchEquivalence(t *testing.T) {
	batch := func(d DecoderKind) (*Extraction, *IngestReport) {
		x := NewExtraction()
		docs := make([]Doc, len(decoderEquivCorpus))
		for i, s := range decoderEquivCorpus {
			docs[i] = Doc{Label: "doc", R: strings.NewReader(s)}
		}
		report, err := x.AddDocsParallelContext(context.Background(), docs, 1, &IngestOptions{Decoder: d}, SkipAndRecord)
		if err != nil {
			t.Fatal(err)
		}
		return x, report
	}
	xf, rf := batch(DecoderFast)
	xs, rs := batch(DecoderStd)
	if rf.Accepted != rs.Accepted || rf.Rejected != rs.Rejected {
		t.Fatalf("batch acceptance differs: fast %d/%d, std %d/%d",
			rf.Accepted, rf.Rejected, rs.Accepted, rs.Rejected)
	}
	if rf.Tokens != rs.Tokens || rf.Elements != rs.Elements {
		t.Fatalf("batch counters differ: fast tokens=%d elements=%d, std tokens=%d elements=%d",
			rf.Tokens, rf.Elements, rs.Tokens, rs.Elements)
	}
	if got, want := snapshot(xf), snapshot(xs); got != want {
		t.Fatalf("batch extraction state differs:\nfast:\n%s\nstd:\n%s", got, want)
	}
	// The reference loop over the same batch, skipping rejections.
	xr := NewExtraction()
	for _, s := range decoderEquivCorpus {
		refIngest(context.Background(), xr, strings.NewReader(s), nil)
	}
	if got, want := snapshot(xf), snapshot(xr); got != want {
		t.Fatalf("batch extraction state differs from reference:\nstager:\n%s\nref:\n%s", got, want)
	}
}

// FuzzTokenizerEquivalence feeds the same bytes through the fast
// tokenizer path and the encoding/xml path and requires identical
// acceptance and, on acceptance, identical extraction state — both
// uncapped and under tight resource caps. Run with
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
