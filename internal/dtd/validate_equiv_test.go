package dtd

import (
	"reflect"
	"strings"
	"testing"
)

// Differential testing of validation: Validator.ValidateOptions, reading
// the tokenizer through the DocReader, must agree with refValidate, the
// encoding/xml loop it replaced (reference_test.go): the same accept or
// reject, the same violations (element, offset and reason) and the same
// error text up to the known differences (errRewrites).

// refDTD exercises what inferred DTDs rarely declare: IDs and IDREFs,
// enumerations, required attributes, and elements for the namespace
// corner documents.
const refDTD = `<!DOCTYPE db [
<!ELEMENT db (rec|ref|a|c|d|r)*>
<!ELEMENT rec (name?)>
<!ATTLIST rec id ID #REQUIRED kind (x|y) "x">
<!ELEMENT ref EMPTY>
<!ATTLIST ref to IDREF #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT a (#PCDATA|b)*>
<!ATTLIST a b CDATA #IMPLIED q CDATA #IMPLIED>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST c a CDATA #IMPLIED b CDATA #IMPLIED>
<!ELEMENT d EMPTY>
<!ATTLIST d b CDATA #IMPLIED c CDATA #IMPLIED>
<!ELEMENT r (c|d)*>
]>`

// refDTDDocs are valid and invalid documents for refDTD: ID/IDREF
// resolution (forward, dangling, duplicate), enumerations, required and
// undeclared attributes, and the namespace corners — a default xmlns, the
// xml: prefix, undeclared prefixes, a prefix bound to the literal value
// "xmlns" (its attributes are declarations to encoding/xml), rebinding
// such a prefix, and a prefixed attribute whose local name is "xmlns".
var refDTDDocs = []string{
	`<db><rec id="r1"><name>x</name></rec><ref to="r1"/></db>`,
	`<db><ref to="r2"/><rec id="r2" kind="y"/></db>`,
	`<db><ref to="nope"/><ref to="r1"/><rec id="r1"/></db>`,
	`<db><rec id="r1"/><rec id="r1"/></db>`,
	`<db><rec id="r1" kind="z"/></db>`,
	`<db><rec><name>n</name></rec><ref/></db>`,
	`<db><rec id="r1" extra="1"/><name>stray</name></db>`,
	`<db><rec id="r1">text<name/></rec><a>t<b/>u</a><a><c/></a></db>`,
	`<db xmlns="u"><a b="1"/></db>`,
	`<db xmlns:x="u"><x:a x:b="1" q="2"/></db>`,
	`<db><a xml:lang="en" b="1"/></db>`,
	`<db><c q:a="1" w:b="2"/></db>`,
	`<db xmlns:z="xmlns"><c z:a="1" b="2"/></db>`,
	`<db xmlns:z="xmlns"><c xmlns:z="u" z:a="1"/><d z:b="2"/></db>`,
	`<db><r><c xmlns:z="xmlns" z:a="1"/><d z:c="3"/></r></db>`,
	`<db xmlns:z="xmlns"><c xmlns:z="" z:a="1"/></db>`,
	`<db><a p:xmlns="v" b="1"/><c xmlns:p="u" p:xmlns="w"/></db>`,
	`<db xmlns:xml="xmlns"><c xml:a="1"/></db>`,
	`<wrong><rec id="r1"/></wrong>`,
	`<db><rec id="r1">`,
	`<db xmlns:x="u"><x:a></y:a></db>`,
	`<db><ref to="r1"/></db><db><rec id="r1"/></db>`,
}

// validatorCase is one validator under test and the documents it runs
// over.
type validatorCase struct {
	v    *Validator
	docs []string
}

// validatorCases returns the validators under test and the documents
// each runs over: DTDs inferred from genDocs and capDocs (so most of
// those documents validate and the rest violate content models and
// attribute declarations), and refDTD. Every validator also sees the
// extraction equivalence corpus, whose roots and names it mostly does
// not declare.
func validatorCases(t testing.TB) []validatorCase {
	infer := func(docs []string) *DTD {
		x := NewExtraction()
		for _, d := range docs {
			if err := x.AddDocument(strings.NewReader(d)); err != nil {
				t.Fatal(err)
			}
		}
		d, _, err := inferWith(x, testInfer)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	gen := genDocs(11, 60)
	caps := capDocs(4)
	// Extra documents that break the inferred models.
	gen = append(gen, `<root id="9"><alpha><beta kind="k9"/></alpha>stray</root>`, `<root><zeta/></root>`)
	caps = append(caps, `<r><e/><e a="A" b="1"/><t><e/></t></r>`)
	var cases []validatorCase
	add := func(d *DTD, docs []string) {
		all := append(append([]string(nil), docs...), decoderEquivCorpus...)
		cases = append(cases, validatorCase{NewValidator(d), all})
	}
	add(infer(gen[:60]), gen)
	add(infer(caps[:4]), caps)
	add(MustParse(refDTD), refDTDDocs)
	return cases
}

// validatorCaps are the cap settings the differential runs under: none,
// the production defaults, and caps tight enough to fire on the corpora.
var validatorCaps = []*IngestOptions{
	nil,
	DefaultIngestOptions(),
	{MaxDepth: 20, MaxTokens: 64, MaxBytes: 1 << 10},
}

// checkValidatorEquivalence validates one document with the Validator
// and with refValidate under caps and requires identical results. When
// either side hits the bytes cap only acceptance is compared: where that
// cap fires follows each decoder's read buffer (see bytesLimit).
func checkValidatorEquivalence(t *testing.T, v *Validator, doc string, caps *IngestOptions) (violations int, valid bool) {
	t.Helper()
	got, errG := v.ValidateOptions(strings.NewReader(doc), caps)
	want, errW := v.refValidate(strings.NewReader(doc), caps)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("caps %+v: acceptance differs for %q:\nvalidator: %v\nref:       %v", caps, doc, errG, errW)
	}
	if errG != nil {
		if bytesLimit(errG) || bytesLimit(errW) {
			return 0, false
		}
		if !sameErrorText(errG, errW) {
			t.Fatalf("caps %+v: error differs for %q:\nvalidator: %v\nref:       %v", caps, doc, errG, errW)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("caps %+v: violations differ for %q:\nvalidator: %v\nref:       %v", caps, doc, got, want)
	}
	return len(got), errG == nil && len(got) == 0
}

func TestValidatorMatchesReference(t *testing.T) {
	var violations, valid int
	for _, c := range validatorCases(t) {
		for _, caps := range validatorCaps {
			for _, doc := range c.docs {
				n, ok := checkValidatorEquivalence(t, c.v, doc, caps)
				violations += n
				if ok {
					valid++
				}
			}
		}
	}
	// Guard against a vacuous differential: both outcomes must occur.
	if violations == 0 || valid == 0 {
		t.Fatalf("corpus exercised %d violations and %d valid documents; want both", violations, valid)
	}
}

// FuzzValidatorEquivalence runs the validator differential on arbitrary
// bytes against every validator of validatorCases, uncapped and under
// tight caps. Run with -fuzz=FuzzValidatorEquivalence; as a unit test it
// replays the seeds.
func FuzzValidatorEquivalence(f *testing.F) {
	cases := validatorCases(f)
	for _, c := range cases {
		for _, doc := range c.docs {
			f.Add(doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, c := range cases {
			checkValidatorEquivalence(t, c.v, doc, nil)
			checkValidatorEquivalence(t, c.v, doc, validatorCaps[2])
		}
	})
}
