package core

import (
	"context"
	"io"
	"strings"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/xsd"
)

func split(ws ...string) [][]string {
	out := make([][]string, len(ws))
	for i, w := range ws {
		for _, r := range w {
			out[i] = append(out[i], string(r))
		}
	}
	return out
}

func TestParseAlgorithm(t *testing.T) {
	for _, name := range []string{"idtd", "crx", "rewrite", "xtract", "trang", "stateelim"} {
		if _, err := ParseAlgorithm(name); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("want error")
	}
}

func TestInferExprAllAlgorithmsCoverSample(t *testing.T) {
	sample := split("ab", "abb", "aab", "b")
	for _, algo := range []Algorithm{IDTD, CRX, XTRACT, TrangLike, StateElim} {
		e, err := inferWords(sample, algo, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for _, w := range sample {
			if !automata.ExprMember(regex.ExpandRepeats(e), w) {
				t.Errorf("%s result %s rejects %v", algo, e, w)
			}
		}
	}
}

func TestRewriteOnlyFailsOnNonRepresentative(t *testing.T) {
	// The Figure 2 sample: rewrite alone must fail, iDTD must not.
	sample := split("bacacdacde", "cbacdbacde")
	if _, err := inferWords(sample, RewriteOnly, nil); err == nil {
		t.Error("rewrite should fail on the Figure 2 sample")
	}
	if _, err := inferWords(sample, IDTD, nil); err != nil {
		t.Errorf("iDTD should succeed: %v", err)
	}
}

func TestNumericPredicatesOption(t *testing.T) {
	sample := split("aabb", "aabbb")
	e, err := inferWords(sample, IDTD, &Options{NumericPredicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "a{2} b{2,}" {
		t.Errorf("numeric result = %q, want a{2} b{2,}", e)
	}
}

func TestInferDTDFromReaders(t *testing.T) {
	docs := []string{
		`<r><x>1</x><x>2</x></r>`,
		`<r><x>3</x></r>`,
	}
	var readers []interface{ Read([]byte) (int, error) }
	_ = readers
	x := dtd.NewExtraction()
	for _, d := range docs {
		if err := x.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := InferDTDFromExtraction(x, IDTD, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Elements["r"].Model.String(); got != "x+" {
		t.Errorf("model = %q", got)
	}
}

func TestInferXSDSmoke(t *testing.T) {
	x := dtd.NewExtraction()
	if err := x.AddDocument(strings.NewReader(`<r><n>7</n></r>`)); err != nil {
		t.Fatal(err)
	}
	d, err := InferDTDFromExtraction(x, CRX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Elements["n"].Type != dtd.PCData {
		t.Errorf("n should be #PCDATA")
	}
}

func TestUnknownAlgorithmError(t *testing.T) {
	if _, err := inferWords(split("a"), Algorithm("nope"), nil); err == nil {
		t.Error("want error for unknown algorithm")
	}
}

// inferDocs runs the document-level path through the two core verbs:
// Ingest into a fresh extraction, then infer its DTD.
func inferDocs(docs []io.Reader, algo Algorithm, ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.Extraction, *dtd.DTD, *dtd.IngestReport, *dtd.InferStats, error) {
	ctx := context.Background()
	x, report, err := Ingest(ctx, docs, nil, ingest, policy)
	if err != nil {
		return nil, nil, report, nil, err
	}
	d, stats, err := InferDTDFromExtractionContext(ctx, x, algo, nil)
	return x, d, report, stats, err
}

func TestInferDTDAndXSDFromDocuments(t *testing.T) {
	docs := []io.Reader{
		strings.NewReader(`<r><x>1</x><y/></r>`),
		strings.NewReader(`<r><x>2</x><x>3</x></r>`),
	}
	_, d, _, _, err := inferDocs(docs, IDTD, nil, dtd.FailFast)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Elements["r"].Model.String(); got != "x+ y?" {
		t.Errorf("model = %q", got)
	}
	x, d, _, _, err := inferDocs([]io.Reader{strings.NewReader(`<r><x>5</x></r>`)}, CRX, nil, dtd.FailFast)
	if err != nil {
		t.Fatal(err)
	}
	if out := xsd.Generate(d, x.TextSamples); !strings.Contains(out, `type="xs:integer"`) {
		t.Errorf("XSD datatype detection missing:\n%s", out)
	}
	if _, _, _, _, err := inferDocs([]io.Reader{strings.NewReader("<broken")}, IDTD, nil, dtd.FailFast); err == nil {
		t.Error("malformed document must fail")
	} else if !strings.HasPrefix(err.Error(), "core: ") {
		t.Errorf("ingestion error lost its prefix: %v", err)
	}
}

func TestInferDTDReportSkipPolicy(t *testing.T) {
	good := func() []io.Reader {
		return []io.Reader{
			strings.NewReader(`<r><x>1</x><y/></r>`),
			strings.NewReader(`<r><x>2</x><x>3</x></r>`),
		}
	}
	_, want, _, _, err := inferDocs(good(), IDTD, nil, dtd.FailFast)
	if err != nil {
		t.Fatal(err)
	}
	docs := []io.Reader{
		strings.NewReader(`<r><x>1</x><y/></r>`),
		strings.NewReader(`<r><x>bad</r>`),
		strings.NewReader(`<r><x>2</x><x>3</x></r>`),
	}
	_, d, report, stats, err := inferDocs(docs, IDTD, nil, dtd.SkipAndRecord)
	if err != nil {
		t.Fatalf("skip policy must not error: %v", err)
	}
	if report.Accepted != 2 || report.Rejected != 1 || len(report.Errors) != 1 {
		t.Errorf("report = %+v", report)
	}
	if stats == nil || len(stats.PerElement) == 0 {
		t.Errorf("missing inference stats")
	}
	if !d.Equal(want) {
		t.Errorf("DTD with skipped document differs:\n%s\nvs\n%s", d, want)
	}
}

func TestInferDTDReportFailFast(t *testing.T) {
	docs := []io.Reader{
		strings.NewReader(`<r><x>1</x></r>`),
		strings.NewReader(`<broken`),
	}
	_, _, report, _, err := inferDocs(docs, IDTD, nil, dtd.FailFast)
	if err == nil {
		t.Fatal("fail-fast must surface the error")
	}
	if report == nil || report.Rejected != 1 {
		t.Errorf("report = %+v", report)
	}
}

func TestInferDTDReportLimits(t *testing.T) {
	deep := strings.Repeat("<d>", 1000) + strings.Repeat("</d>", 1000)
	_, _, report, _, err := inferDocs([]io.Reader{strings.NewReader(deep)}, IDTD,
		&dtd.IngestOptions{MaxDepth: 10}, dtd.FailFast)
	if err == nil {
		t.Fatal("depth cap must reject the document")
	}
	if !strings.Contains(err.Error(), "depth") {
		t.Errorf("error does not name the cap: %v", err)
	}
	if report.Rejected != 1 {
		t.Errorf("report = %+v", report)
	}
}

func TestInferDTDFromExtractionStats(t *testing.T) {
	x := dtd.NewExtraction()
	if err := x.AddDocument(strings.NewReader(`<r><x>1</x></r>`)); err != nil {
		t.Fatal(err)
	}
	d, stats, err := InferDTDFromExtractionStats(x, CRX, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || stats == nil || stats.Wall <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}
