package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/faultinject"
)

// testServer builds a Server+httptest pair and tears both down in the
// contract order: listener first (in-flight requests complete), then
// Close (queues flush, workers exit).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.PersistInterval == 0 {
		cfg.PersistInterval = -1 // deterministic tests persist explicitly
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(10 * time.Second); err != nil && err != ErrDrainTimeout {
			t.Logf("Close: %v", err)
		}
	})
	return srv, ts
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestIngestReadValidateFlow(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL + "/v1/tenants/shop"

	code, body := post(t, base+"/documents",
		"<store><book><title>a</title><price>1</price></book></store>")
	if code != 200 {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	var res struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil || res.Version != 1 {
		t.Fatalf("ingest reply %q, want version 1 (%v)", body, err)
	}

	code, dtdText := get(t, base+"/dtd")
	if code != 200 || !strings.Contains(dtdText, "<!ELEMENT book") {
		t.Fatalf("dtd = %d: %s", code, dtdText)
	}
	code, xsdText := get(t, base+"/xsd")
	if code != 200 || !strings.Contains(xsdText, "xs:schema") {
		t.Fatalf("xsd = %d: %s", code, xsdText)
	}

	// The served DTD must be byte-identical to library inference over
	// the same corpus.
	x := dtd.NewExtraction()
	if err := x.AddDocumentOptions(strings.NewReader(
		"<store><book><title>a</title><price>1</price></book></store>"), nil); err != nil {
		t.Fatal(err)
	}
	want, err := core.InferDTDFromExtraction(x, core.IDTD, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dtdText != want.String() {
		t.Errorf("served DTD:\n%s\nwant library inference:\n%s", dtdText, want)
	}

	code, body = post(t, base+"/validate",
		"<store><book><title>x</title><price>9</price></book></store>")
	if code != 200 || !strings.Contains(body, `"valid": true`) {
		t.Errorf("validate(valid doc) = %d: %s", code, body)
	}
	code, body = post(t, base+"/validate", "<store><magazine/></store>")
	if code != 200 || !strings.Contains(body, `"valid": false`) {
		t.Errorf("validate(invalid doc) = %d: %s", code, body)
	}

	// A second document advances the version; readers see v2.
	code, body = post(t, base+"/documents",
		"<store><book><title>b</title></book><book><title>c</title><price>2</price></book></store>")
	if code != 200 || !strings.Contains(body, `"version": 2`) {
		t.Errorf("second ingest = %d: %s", code, body)
	}

	code, body = get(t, base+"/status")
	if code != 200 || !strings.Contains(body, `"documents": 2`) {
		t.Errorf("status = %d: %s", code, body)
	}
}

func TestReadPathsAndErrors(t *testing.T) {
	_, ts := testServer(t, Config{})

	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("healthz = %d", code)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != 200 {
		t.Errorf("readyz = %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/tenants/nope/dtd"); code != 404 {
		t.Errorf("dtd of missing tenant = %d, want 404", code)
	}
	if code, body := post(t, ts.URL+"/v1/tenants/bad..name/documents", "<a/>"); code != 400 {
		t.Errorf("invalid tenant name = %d: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/tenants/t/documents", ""); code != 400 {
		t.Errorf("empty document = %d: %s", code, body)
	}
	// A malformed document is rejected per-document (422), and the
	// tenant still has no schema.
	if code, body := post(t, ts.URL+"/v1/tenants/t/documents", "<a><b></a>"); code != 422 {
		t.Errorf("malformed document = %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/tenants/t/dtd"); code != 404 {
		t.Errorf("dtd after only-rejected ingest = %d, want 404", code)
	}
}

func TestSummaryUploadMerges(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL + "/v1/tenants/merged"

	if code, body := post(t, base+"/documents", "<r><x/></r>"); code != 200 {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	shard := dtd.NewExtraction()
	if err := shard.AddDocumentOptions(strings.NewReader("<r><y/><z/></r>"), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteCorpus(shard, &buf); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, base+"/summary", buf.String())
	if code != 200 || !strings.Contains(body, `"version": 2`) {
		t.Fatalf("summary upload = %d: %s", code, body)
	}
	_, dtdText := get(t, base+"/dtd")
	for _, el := range []string{"<!ELEMENT x", "<!ELEMENT y", "<!ELEMENT z"} {
		if !strings.Contains(dtdText, el) {
			t.Errorf("merged DTD missing %q:\n%s", el, dtdText)
		}
	}
	if code, body := post(t, base+"/summary", "not a corpus summary"); code != 400 {
		t.Errorf("corrupt summary upload = %d: %s", code, body)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	defer faultinject.Reset()
	_, ts := testServer(t, Config{QueueSize: 1})
	base := ts.URL + "/v1/tenants/busy"

	// Create the tenant (and its worker) with a first document.
	if code, body := post(t, base+"/documents", "<a><b/></a>"); code != 200 {
		t.Fatalf("priming ingest = %d: %s", code, body)
	}

	// Stall the worker on its next job, fill the 1-slot queue behind
	// it, and watch the third request bounce with 429 + Retry-After.
	faultinject.Set("server.worker", "busy", faultinject.Fault{Delay: 3 * time.Second, Times: 1})
	done := make(chan int, 2)
	async := func() {
		resp, err := http.Post(base+"/documents", "application/xml",
			strings.NewReader("<a><b/><b/></a>"))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	go async() // dequeued by the worker, which stalls on the fault
	// The Times=1 registration disappears exactly when the worker fires
	// it — i.e. once the worker is inside its 3s stall.
	waitFor(t, func() bool { return !faultinject.Pending("server.worker", "busy") })
	go async() // sits in the queue
	waitFor(t, func() bool { return queueDepth(t, base) == 1 })

	resp, err := http.Post(base+"/documents", "application/xml", strings.NewReader("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The two queued requests complete normally once the stall clears.
	for i := 0; i < 2; i++ {
		if code := <-done; code != 200 {
			t.Errorf("queued ingest %d = %d, want 200", i, code)
		}
	}
}

func queueDepth(t *testing.T, base string) int {
	t.Helper()
	code, body := get(t, base+"/status")
	if code != 200 {
		t.Fatalf("status = %d: %s", code, body)
	}
	var st struct {
		QueueDepth int `json:"queueDepth"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st.QueueDepth
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestHandlerPanicContained(t *testing.T) {
	defer faultinject.Reset()
	srv, ts := testServer(t, Config{})
	base := ts.URL + "/v1/tenants/p"
	if code, _ := post(t, base+"/documents", "<a><b/></a>"); code != 200 {
		t.Fatal("priming ingest failed")
	}
	faultinject.Set("server.handler", "dtd", faultinject.Fault{Panic: true, Times: 1})
	if code, _ := get(t, base+"/dtd"); code != 500 {
		t.Errorf("panicking handler = %d, want 500", code)
	}
	if code, _ := get(t, base+"/dtd"); code != 200 {
		t.Errorf("handler after contained panic = %d, want 200", code)
	}
	if n := srv.metrics.panics.Load(); n != 1 {
		t.Errorf("panics counter = %d, want 1", n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := ts.URL + "/v1/tenants/m"
	post(t, base+"/documents", "<a><b/></a>")
	post(t, base+"/validate", "<a><b/></a>")
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"dtdserved_ingest_accepted_total 1",
		"dtdserved_refreshes_total 1",
		"dtdserved_validations_total 1",
		`dtdserved_tenant_version{tenant="m"} 1`,
		"dtdserved_draining 0",
		// Pipeline stage counters are always exposed, even when every
		// batch so far ran inline at one worker (single-document batches).
		"dtdserved_pipeline_batches_total",
		"dtdserved_pipeline_flush_units_total",
		"dtdserved_pipeline_commit_ns_total",
		"dtdserved_pipeline_committer_idle_ns_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestBatchCoalescing(t *testing.T) {
	srv, ts := testServer(t, Config{QueueSize: 64})
	base := ts.URL + "/v1/tenants/batch"
	// Fire a burst of concurrent ingests; the worker coalesces whatever
	// queues up behind the first into shared AddDocs+Refresh passes, so
	// refreshes <= documents while every request succeeds.
	const n = 16
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf("<a>%s</a>", strings.Repeat("<b/>", i+1))
		go func() {
			resp, err := http.Post(base+"/documents", "application/xml", strings.NewReader(doc))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != 200 {
			t.Errorf("burst ingest %d = %d, want 200", i, code)
		}
	}
	refreshes := srv.metrics.refreshes.Load()
	if refreshes < 1 || refreshes > n {
		t.Errorf("refreshes = %d, want between 1 and %d", refreshes, n)
	}
	if got := srv.metrics.ingestAccepted.Load(); got != n {
		t.Errorf("accepted = %d, want %d", got, n)
	}
	if code, body := get(t, base+"/status"); code != 200 || !strings.Contains(body, `"documents": 16`) {
		t.Errorf("status = %d: %s", code, body)
	}
}
