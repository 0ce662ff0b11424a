package dtdinfer

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/soa"
	"dtdinfer/internal/xsd"
)

var quickDocs = []string{
	`<library><book><title>A</title><author>X</author><author>Y</author></book></library>`,
	`<library><book><title>B</title></book><book><title>C</title><author>Z</author><isbn>1</isbn></book></library>`,
}

func readers(docs []string) []io.Reader {
	out := make([]io.Reader, len(docs))
	for i, d := range docs {
		out[i] = strings.NewReader(d)
	}
	return out
}

func TestInferDTDEndToEnd(t *testing.T) {
	d, err := InferDTD(readers(quickDocs), IDTD, nil)
	if err != nil {
		t.Fatalf("InferDTD: %v", err)
	}
	if d.Root != "library" {
		t.Errorf("root = %s", d.Root)
	}
	// iDTD is more precise than a chain: isbn was only ever seen after at
	// least one author, and the SORE keeps that.
	if got := d.Elements["book"].Model.String(); got != "title (author+ isbn?)?" {
		t.Errorf("book model = %q", got)
	}
	dc, err := InferDTD(readers(quickDocs), CRX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.Elements["book"].Model.String(); got != "title author* isbn?" {
		t.Errorf("CRX book model = %q", got)
	}
	// The inferred DTD validates the training documents.
	v := NewValidator(d)
	for _, doc := range quickDocs {
		if !v.ValidDocument(doc) {
			t.Errorf("inferred DTD rejects training document %q", doc)
		}
	}
	// Round trip through the DTD text form.
	d2, err := ParseDTD(d.String())
	if err != nil {
		t.Fatalf("ParseDTD: %v", err)
	}
	if !d.Equal(d2) {
		t.Error("DTD text round trip changed the schema")
	}
}

func TestInferDTDAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{IDTD, CRX, XTRACT, TrangLike, StateElim} {
		d, err := InferDTD(readers(quickDocs), algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		v := NewValidator(d)
		for _, doc := range quickDocs {
			if !v.ValidDocument(doc) {
				t.Errorf("%s: inferred DTD rejects a training document", algo)
			}
		}
	}
}

func TestInferContentModel(t *testing.T) {
	sample := [][]string{{"a", "b"}, {"a", "b", "b"}, {"a"}}
	e, err := InferContentModel(sample, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "a b*" {
		t.Errorf("model = %q", e)
	}
}

func TestInferXSDEndToEnd(t *testing.T) {
	out, err := InferXSD(readers(quickDocs), IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`<xs:schema`, `<xs:element name="book">`,
		`<xs:element name="isbn" type="xs:integer"/>`} {
		if !strings.Contains(out, want) {
			t.Errorf("XSD missing %q\n%s", want, out)
		}
	}
	broken := []string{"<broken"}
	_, dtdErr := InferDTD(readers(broken), IDTD, nil)
	if out, err := InferXSD(readers(broken), IDTD, nil); err == nil {
		t.Errorf("malformed document must fail for XSD too, got:\n%s", out)
	} else if dtdErr == nil || err.Error() != dtdErr.Error() {
		t.Errorf("XSD error %q, DTD error %v: want the same text", err, dtdErr)
	}
}

func TestIncrementalCRXFacade(t *testing.T) {
	inc := NewIncrementalCRX([][]string{{"a", "b"}})
	later := NewIncrementalCRX([][]string{{"a"}})
	inc.Merge(later)
	res, err := inc.Infer(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Expr.String() != "a b?" {
		t.Errorf("incremental result = %q", res.Expr)
	}
}

func TestParseAlgorithm(t *testing.T) {
	if _, err := core.ParseAlgorithm("idtd"); err != nil {
		t.Error(err)
	}
	if _, err := core.ParseAlgorithm("nope"); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

func TestProteinCorpusEndToEnd(t *testing.T) {
	docs := corpus.Protein(1, 60)
	d, err := InferDTD(corpus.Documents(docs), IDTD, nil)
	if err != nil {
		t.Fatalf("InferDTD: %v", err)
	}
	// The schema-cleaning observation of Section 1.1: the corpus supports
	// (volume|month), stricter than the published volume?,month?.
	model := d.Elements["refinfo"].Model.String()
	if strings.Contains(model, "volume? month?") || strings.Contains(model, "volume?  month?") {
		t.Errorf("refinfo model not tightened: %q", model)
	}
	v := NewValidator(d)
	for _, doc := range docs {
		if !v.ValidDocument(doc) {
			t.Fatal("inferred DTD rejects a corpus document")
		}
	}
	// The published (looser) DTD also validates the corpus.
	pub := corpus.ProteinDTD()
	pv := NewValidator(pub)
	for _, doc := range docs {
		if !pv.ValidDocument(doc) {
			t.Fatal("published DTD rejects a corpus document")
		}
	}
}

func TestXSDRoundTripThroughFacade(t *testing.T) {
	d, err := InferDTD(readers(quickDocs), IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := xsd.Parse(xsd.Generate(d, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Errorf("facade XSD round trip changed the DTD:\n%s\nvs\n%s", d, back)
	}
}

func TestAttributeInferenceThroughFacade(t *testing.T) {
	docs := []string{
		`<m><s id="a1" state="on"/><s id="a2" state="off"/></m>`,
		`<m><s id="a3" state="on"/><s id="a4" state="off"/></m>`,
	}
	d, err := InferDTD(readers(docs), IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := d.String()
	for _, want := range []string{"<!ATTLIST s id ID #REQUIRED>", "<!ATTLIST s state (off|on) #REQUIRED>"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
}

func TestIncrementalSOAFacade(t *testing.T) {
	inc := soa.Infer([][]string{{"a", "b"}})
	inc.Merge(soa.Infer([][]string{{"a", "b", "b"}}))
	res, err := idtd.FromSOA(context.Background(), inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expr.String() != "a b+" {
		t.Errorf("incremental SORE = %q", res.Expr)
	}
}

func TestContextualSchemaThroughFacade(t *testing.T) {
	docs := []string{
		`<store><book><name><title>T</title></name><author><name><first>A</first><last>B</last></name></author></book></store>`,
		`<store><book><name><title>U</title></name><author><name><first>C</first><last>D</last></name></author></book></store>`,
	}
	s, err := InferContextualSchema(readers(docs), 1, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsDTDExpressible() {
		t.Fatalf("name must get two types:\n%s", s)
	}
	v := NewContextualValidator(s)
	for _, doc := range docs {
		if !v.ValidDocument(doc) {
			t.Error("training document rejected")
		}
	}
	if !strings.Contains(s.ToXSD(), `<xs:complexType name="t-name.1">`) {
		t.Error("XSD emission broken")
	}
}

func TestInferDTDWithReportPublicAPI(t *testing.T) {
	want, err := InferDTD(readers(quickDocs), IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := append(readers(quickDocs[:1]),
		strings.NewReader(`<library><book><title>bad</library>`))
	batch = append(batch, readers(quickDocs[1:])...)
	d, report, stats, err := InferDTDWithReport(batch, IDTD, nil, DefaultIngestOptions(), SkipAndRecord)
	if err != nil {
		t.Fatalf("skip policy must not error: %v", err)
	}
	if !d.Equal(want) {
		t.Errorf("DTD with skipped malformed document differs:\n%s\nvs\n%s", d, want)
	}
	if report.Accepted != 2 || report.Rejected != 1 || len(report.Errors) != 1 {
		t.Errorf("report = %+v", report)
	}
	if report.Errors[0].Index != 1 {
		t.Errorf("error index = %d, want 1", report.Errors[0].Index)
	}
	if stats == nil || len(stats.PerElement) == 0 {
		t.Fatal("missing inference timings")
	}
	// A cold pass over a fresh extraction: every children-content
	// element is exactly one cache miss.
	children := 0
	for _, e := range d.Elements {
		if e.Model != nil {
			children++
		}
	}
	if stats.CacheMisses != children || stats.CacheHits != 0 || stats.CacheRecomputes != 0 {
		t.Errorf("cold pass counters: %d hits %d misses %d recomputes, want 0/%d/0",
			stats.CacheHits, stats.CacheMisses, stats.CacheRecomputes, children)
	}
	if !strings.Contains(stats.String(), fmt.Sprintf("cache: 0 hits, %d misses, 0 recomputes", children)) {
		t.Errorf("stats miss the cache line:\n%s", stats)
	}
}

// TestInferDTDFromExtractionConcurrent runs concurrent inference calls on
// one extraction under the race detector: a pass writes the extraction's
// caches and dirty bits, so calls must be serialized, and every caller
// must get the same DTD.
func TestInferDTDFromExtractionConcurrent(t *testing.T) {
	x := dtd.NewExtraction()
	for _, doc := range quickDocs {
		if err := x.AddDocument(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	dtds := make([]*DTD, 8)
	var wg sync.WaitGroup
	for i := range dtds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := core.InferDTDFromExtraction(x, IDTD, nil)
			if err != nil {
				t.Errorf("concurrent InferDTDFromExtraction: %v", err)
				return
			}
			dtds[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range dtds {
		if d == nil || dtds[0] == nil {
			t.Fatal("missing result")
		}
		if !d.Equal(dtds[0]) {
			t.Errorf("caller %d got a different DTD:\n%s\nvs\n%s", i, d, dtds[0])
		}
	}
}

func TestIngestOptionsRejectDeepNesting(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100_000; i++ {
		b.WriteString("<d>")
	}
	// Never closed: the depth cap must fire long before EOF handling.
	x := dtd.NewExtraction()
	err := x.AddDocumentOptions(strings.NewReader(b.String()), DefaultIngestOptions())
	if err == nil {
		t.Fatal("deep nesting must be rejected")
	}
	if !strings.Contains(err.Error(), "depth") {
		t.Errorf("error does not describe the cap: %v", err)
	}
}
