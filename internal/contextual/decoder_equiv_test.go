package contextual

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dtdinfer/internal/dtd"
)

// Differential tests: the contextual extraction loop and the contextual
// Validator, both reading the tokenizer through dtd.DocReader, must
// behave exactly as the encoding/xml reference loops (reference_test.go)
// — same acceptance, same error text up to the known differences
// (errRewrites), same per-context state and the same violations — at
// several context widths.

var contextualEquivCorpus = []string{
	`<a/>`,
	`<db><rec id="a1"><name>n1</name></rec><rec><name/></rec></db>`,
	`<book><name>t</name><author><name>a</name></author></book>`,
	`<a>t1<b/>t2<b/>t3</a>`,
	`<a><![CDATA[raw]]></a>`,
	"<a>\n\t\n</a>",
	`<a xmlns:x="u" x:y="1"><x:b/></a>`,
	`<!DOCTYPE r [<!ELEMENT r (a)>]><r><a/></r>`,
	`<?pi data?><a/><!--c-->`,
	`<日本語><子>値</子></日本語>`,
	strings.Repeat("<d>", 30) + "x" + strings.Repeat("</d>", 30),
	// Rejected inputs.
	``,
	`<a>`,
	`<a><b></a></b>`,
	`<a>&undefined;</a>`,
	"<a>\xff\xfe</a>",
	`<?xml version="1.1"?><a/>`,
	`<x:a xmlns:x="u"></y:a>`,
}

// errRewrites mask the known differences between the tokenizer's and
// encoding/xml's error messages, applied to both sides before comparing:
// the location (encoding/xml reports a syntax error "on line N", the
// tokenizer "at offset N"), and the wording of three errors — the two
// <?xml?> declaration errors (encoding/xml prefixes them "xml:", which the
// tokenizer leaves out, and names its Decoder.CharsetReader hook where the
// tokenizer says "only utf-8 is supported") and an end tag whose prefix
// differs from its start tag's.
var errRewrites = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(on line|at offset) [0-9]+`), "@"},
	{regexp.MustCompile(`xml: (unsupported version|encoding )`), "$1"},
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

func TestContextualDecoderEquivalence(t *testing.T) {
	capsList := []dtd.IngestOptions{
		{},
		{MaxDepth: 10, MaxTokens: 64, MaxNames: 4, MaxBytes: 1 << 10},
	}
	for _, k := range []int{0, 1, 2} {
		for _, caps := range capsList {
			for _, doc := range contextualEquivCorpus {
				xf := NewExtraction(k)
				errF := xf.AddDocumentOptions(strings.NewReader(doc), &caps)
				xr := NewExtraction(k)
				errR := xr.extractOneStd(strings.NewReader(doc), caps)
				if (errF == nil) != (errR == nil) {
					t.Fatalf("k=%d caps=%+v: acceptance differs for %q:\nextract: %v\nref:     %v",
						k, caps, doc, errF, errR)
				}
				if errF != nil {
					if !sameErrorText(errF, errR) {
						t.Fatalf("k=%d caps=%+v: error differs for %q:\nextract: %v\nref:     %v",
							k, caps, doc, errF, errR)
					}
					continue
				}
				if !reflect.DeepEqual(xf, xr) {
					t.Fatalf("k=%d caps=%+v: extraction differs for %q:\nextract: %+v\nref:     %+v",
						k, caps, doc, xf, xr)
				}
			}
		}
	}
}

// TestContextualValidatorMatchesReference validates the equivalence
// corpus and the store documents (valid, and broken in context-specific
// ways) against schemas inferred at each context width, and requires
// Validate and the reference loop to agree on violations (element,
// offset, reason) and errors.
func TestContextualValidatorMatchesReference(t *testing.T) {
	docs := append([]string{
		storeDoc,
		`<store><book><name><first>F</first></name></book></store>`,
		`<store><book><author><name><title>T</title></name></author>text</book></store>`,
		`<book><name><title>T</title></name></book>`,
		`<store xmlns:p="u"><p:book p:id="1"><name><title>T</title></name></p:book></store>`,
	}, contextualEquivCorpus...)
	var violations int
	for _, k := range []int{0, 1, 2} {
		v := NewValidator(inferStore(t, k))
		for _, doc := range docs {
			got, errG := v.Validate(strings.NewReader(doc))
			want, errW := v.refValidate(strings.NewReader(doc))
			if (errG == nil) != (errW == nil) || errG != nil && !sameErrorText(errG, errW) {
				t.Fatalf("k=%d: errors differ for %q:\nvalidator: %v\nref:       %v", k, doc, errG, errW)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: violations differ for %q:\nvalidator: %v\nref:       %v", k, doc, got, want)
			}
			violations += len(got)
		}
	}
	if violations == 0 {
		t.Fatal("the corpus produced no violations; the differential is vacuous")
	}
}
