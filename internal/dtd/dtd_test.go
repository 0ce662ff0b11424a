package dtd

import (
	"strings"
	"testing"

	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

const proteinDTDFragment = `<!DOCTYPE ProteinDatabase [
<!ELEMENT ProteinDatabase (ProteinEntry+)>
<!ELEMENT ProteinEntry (header,protein,organism,reference+)>
<!ELEMENT refinfo (authors,citation,volume?,month?,year,pages?,(title|description)?,xrefs?)>
<!ELEMENT authors (author+|(collective,author?))>
<!ELEMENT year (#PCDATA)>
<!ELEMENT xrefs EMPTY>
<!ELEMENT note (#PCDATA|sup|sub)*>
<!ELEMENT anything ANY>
]>`

func TestParseDTD(t *testing.T) {
	d, err := Parse(proteinDTDFragment)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Root != "ProteinDatabase" {
		t.Errorf("Root = %q", d.Root)
	}
	if got := d.Elements["refinfo"].Model.DTDString(); got != "authors,citation,volume?,month?,year,pages?,(title|description)?,xrefs?" {
		t.Errorf("refinfo model = %q", got)
	}
	if d.Elements["year"].Type != PCData {
		t.Errorf("year type = %v", d.Elements["year"].Type)
	}
	if d.Elements["xrefs"].Type != Empty {
		t.Errorf("xrefs type = %v", d.Elements["xrefs"].Type)
	}
	if d.Elements["anything"].Type != Any {
		t.Errorf("anything type = %v", d.Elements["anything"].Type)
	}
	e := d.Elements["note"]
	if e.Type != Mixed || len(e.MixedNames) != 2 || e.MixedNames[0] != "sub" || e.MixedNames[1] != "sup" {
		t.Errorf("note = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<!DOCTYPE x []>",
		"<!ELEMENT a (b",
		"<!ELEMENT a ((b)>",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d, err := Parse(proteinDTDFragment)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(d.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !d.Equal(d2) {
		t.Errorf("round trip differs:\n%s\n%s", d, d2)
	}
}

const sampleDoc = `<db>
  <entry><name>alpha</name><score>1</score><score>2</score></entry>
  <entry><name>beta</name></entry>
  <note>some <b>bold</b> text</note>
</db>`

func TestExtraction(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(sampleDoc)); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	if x.Root() != "db" {
		t.Errorf("Root = %q", x.Root())
	}
	seqs := x.Sequences["entry"]
	if seqs.Total() != 2 || seqs.Unique() != 2 {
		t.Fatalf("entry sequences = %v", seqs.Strings())
	}
	if strings.Join(seqs.SeqStrings(0), " ") != "name score score" || strings.Join(seqs.SeqStrings(1), " ") != "name" {
		t.Errorf("entry sequences = %v", seqs.Strings())
	}
	if !x.HasText["name"] || x.HasText["entry"] {
		t.Errorf("HasText wrong: %v", x.HasText)
	}
	if !x.HasText["note"] {
		t.Error("note should have text")
	}
}

func TestExtractionRejectsBadXML(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("want error on mismatched tags")
	}
}

func TestInferDTDFullPipeline(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	d, _, err := inferStrings(x, func(sample [][]string) (*regex.Expr, error) {
		return gfa.Rewrite(soa.Infer(sample))
	})
	if err != nil {
		t.Fatalf("InferDTD: %v", err)
	}
	if d.Root != "db" {
		t.Errorf("root = %s", d.Root)
	}
	if got := d.Elements["entry"].Model.String(); got != "name score*" {
		t.Errorf("entry model = %q, want \"name score*\"", got)
	}
	if d.Elements["name"].Type != PCData {
		t.Errorf("name should be #PCDATA")
	}
	if d.Elements["note"].Type != Mixed {
		t.Errorf("note should be mixed, got %v", d.Elements["note"].Type)
	}
	// The inferred DTD must validate the document it came from.
	v := NewValidator(d)
	violations, err := v.Validate(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("inferred DTD rejects its own sample: %v", violations)
	}
}

func TestValidator(t *testing.T) {
	d := MustParse(`<!DOCTYPE db [
<!ELEMENT db (entry+)>
<!ELEMENT entry (name,score*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT score (#PCDATA)>
]>`)
	v := NewValidator(d)
	valid := `<db><entry><name>x</name><score>1</score></entry></db>`
	if !v.ValidDocument(valid) {
		t.Error("valid document rejected")
	}
	tests := []struct {
		doc    string
		reason string
	}{
		{`<db></db>`, "children [] do not match"},
		{`<db><entry><score>1</score></entry></db>`, "do not match"},
		{`<db><entry><name>x</name></entry><bogus/></db>`, "not declared"},
		{`<entry><name>x</name></entry>`, "root"},
		{`<db><entry><name>x</name>loose text</entry></db>`, "character data"},
		{`<db><entry><name>x<b/></name></entry></db>`, "child elements"},
	}
	for _, tc := range tests {
		violations, err := v.Validate(strings.NewReader(tc.doc))
		if err != nil {
			t.Fatalf("Validate(%q): %v", tc.doc, err)
		}
		found := false
		for _, viol := range violations {
			if strings.Contains(viol.String(), tc.reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("doc %q: want violation containing %q, got %v", tc.doc, tc.reason, violations)
		}
	}
}

func TestValidatorEmptyAndMixed(t *testing.T) {
	d := MustParse(`<!DOCTYPE a [
<!ELEMENT a (b,c)>
<!ELEMENT b EMPTY>
<!ELEMENT c (#PCDATA|d)*>
<!ELEMENT d (#PCDATA)>
]>`)
	v := NewValidator(d)
	if !v.ValidDocument(`<a><b/><c>x<d>y</d>z</c></a>`) {
		t.Error("valid mixed document rejected")
	}
	if v.ValidDocument(`<a><b>no</b><c/></a>`) {
		t.Error("EMPTY with content accepted")
	}
	if v.ValidDocument(`<a><b/><c><b/></c></a>`) {
		t.Error("mixed with disallowed child accepted")
	}
}

func TestDTDEqual(t *testing.T) {
	d1 := MustParse(`<!ELEMENT a (b|c)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`)
	d2 := MustParse(`<!ELEMENT a (c|b)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`)
	if !d1.Equal(d2) {
		t.Error("union order must not matter")
	}
	d3 := MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`)
	if d1.Equal(d3) {
		t.Error("different models must differ")
	}
}

func TestDTDEqualAttributeValuesElementwise(t *testing.T) {
	// Joining values with "|" would conflate {"a|b"} with {"a","b"}.
	mk := func(values []string) *DTD {
		d := New("r")
		d.Declare(&Element{Name: "r", Type: Empty})
		d.DeclareAttribute("r", &Attribute{Name: "k", Type: Enumerated, Values: values})
		return d
	}
	if mk([]string{"a|b"}).Equal(mk([]string{"a", "b"})) {
		t.Error(`{"a|b"} must not equal {"a","b"}`)
	}
	if !mk([]string{"a", "b"}).Equal(mk([]string{"a", "b"})) {
		t.Error("identical enumerations must be equal")
	}
	if mk([]string{"a", "b"}).Equal(mk([]string{"a", "c"})) {
		t.Error("different enumerations must differ")
	}
}

func TestExtractionIgnoresCommentsAndPIs(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- leading comment -->
<r><?pi data?><a>x</a><!-- inner --><a>y</a></r>`
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := x.Sequences["r"]; got.Total() != 1 || strings.Join(got.SeqStrings(0), " ") != "a a" {
		t.Errorf("sequences = %v", got.Strings())
	}
	if x.HasText["r"] {
		t.Error("comments and PIs must not count as text")
	}
}

func TestExtractionCDATAIsText(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(`<r><a><![CDATA[raw <text>]]></a></r>`)); err != nil {
		t.Fatal(err)
	}
	if !x.HasText["a"] {
		t.Error("CDATA must count as character data")
	}
	if got := x.TextSamples["a"]; len(got) != 1 || got[0] != "raw <text>" {
		t.Errorf("TextSamples = %v", got)
	}
}

func TestExtractionNamespacesUseLocalNames(t *testing.T) {
	doc := `<ns:r xmlns:ns="http://example.com/x"><ns:a/><other:a xmlns:other="http://example.com/y"/></ns:r>`
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := x.Sequences["r"]; got.Total() != 1 || strings.Join(got.SeqStrings(0), " ") != "a a" {
		t.Errorf("sequences = %v (namespaced elements should use local names)", got.Strings())
	}
}

func TestExtractionUnicodeNamesAndText(t *testing.T) {
	doc := `<日誌><項目>値段は¥100</項目></日誌>`
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if x.Root() != "日誌" {
		t.Errorf("root = %q", x.Root())
	}
	if !x.HasText["項目"] {
		t.Error("unicode text lost")
	}
	d, _, err := inferStrings(x, func(sample [][]string) (*regex.Expr, error) {
		return gfa.Rewrite(soa.Infer(sample))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Elements["日誌"].Model.String(); got != "項目" {
		t.Errorf("model = %q", got)
	}
	// The unicode DTD round-trips through its textual form.
	if _, err := Parse(d.String()); err != nil {
		t.Errorf("unicode DTD does not re-parse: %v\n%s", err, d)
	}
}

func TestExtractionDeeplyNestedDocument(t *testing.T) {
	var b strings.Builder
	const depth = 2000
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if x.Sequences["d"].Total() != depth {
		t.Errorf("got %d d-sequences", x.Sequences["d"].Total())
	}
}
