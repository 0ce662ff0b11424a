package dtd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// endlessXML streams a well-formed document prefix that never ends:
// <r> followed by <a></a> elements forever. Only cancellation can stop a
// decode loop reading from it.
type endlessXML struct {
	buf     []byte
	started bool
}

func (e *endlessXML) Read(p []byte) (int, error) {
	if !e.started {
		e.started = true
		e.buf = append(e.buf, "<r>"...)
	}
	for len(e.buf) < len(p) {
		e.buf = append(e.buf, "<a></a>"...)
	}
	n := copy(p, e.buf)
	e.buf = e.buf[n:]
	return n, nil
}

// The unchanged-ness checks reuse snapshot from ingest_test.go, which
// renders every observable field of an extraction deterministically.

// settleGoroutines waits for the goroutine count to drop back to at most
// base, tolerating runtime background goroutines that may come and go.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d > %d at start", runtime.NumGoroutine(), base)
}

// runCancelled runs fn with a context cancelled shortly after the call
// starts, and fails the test unless fn returns within a generous bound.
func runCancelled(t *testing.T, fn func(ctx context.Context) error) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- fn(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ingestion did not return promptly")
		return nil
	}
}

func TestAddDocsParallelContextCancelPrompt(t *testing.T) {
	base := runtime.NumGoroutine()
	x := NewExtraction()
	before := snapshot(x)
	// Every worker gets an endless document so cancellation is the only
	// way out of every decode loop.
	docs := make([]Doc, 8)
	for i := range docs {
		docs[i] = Doc{Label: fmt.Sprintf("endless %d", i), R: &endlessXML{}}
	}
	err := runCancelled(t, func(ctx context.Context) error {
		_, err := x.AddDocsParallelContext(ctx, docs, 4, nil, SkipAndRecord)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := snapshot(x); got != before {
		t.Errorf("cancelled ingestion mutated the corpus: %s -> %s", before, got)
	}
	settleGoroutines(t, base)
}

func TestAddDocsContextCancelSequential(t *testing.T) {
	base := runtime.NumGoroutine()
	x := NewExtraction()
	before := snapshot(x)
	docs := []Doc{{Label: "endless", R: &endlessXML{}}}
	err := runCancelled(t, func(ctx context.Context) error {
		_, err := x.AddDocsParallelContext(ctx, docs, 1, nil, FailFast)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := snapshot(x); got != before {
		t.Errorf("cancelled ingestion mutated the corpus: %s -> %s", before, got)
	}
	settleGoroutines(t, base)
}

func TestAddDocsContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := NewExtraction()
	good := strings.NewReader("<r><a></a></r>")
	report, err := x.AddDocsParallelContext(ctx, []Doc{{Label: "good", R: good}}, 1, nil, FailFast)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if report.Documents != 0 || report.Accepted != 0 {
		t.Errorf("pre-cancelled batch recorded work: %+v", report)
	}
	if x.Documents != 0 || len(x.Sequences) != 0 {
		t.Error("pre-cancelled batch mutated the corpus")
	}
	// The document reader must not have been consumed either.
	if good.Len() == 0 {
		t.Error("pre-cancelled batch read a document")
	}
}

// TestAddDocsParallelContextCancelMidBatch cancels while some finite
// documents have already decoded: the corpus must still be untouched —
// cancellation is batch-atomic, not prefix-committing.
func TestAddDocsParallelContextCancelMidBatch(t *testing.T) {
	x := NewExtraction()
	docs := []Doc{
		{Label: "good 0", R: strings.NewReader("<r><a></a></r>")},
		{Label: "good 1", R: strings.NewReader("<r><a></a></r>")},
		{Label: "endless", R: &endlessXML{}},
		{Label: "good 2", R: strings.NewReader("<r><a></a></r>")},
	}
	err := runCancelled(t, func(ctx context.Context) error {
		_, err := x.AddDocsParallelContext(ctx, docs, 2, nil, SkipAndRecord)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Documents != 0 || len(x.Sequences) != 0 {
		t.Errorf("cancelled batch committed a partial prefix: docs=%d seqs=%d", x.Documents, len(x.Sequences))
	}
}

// TestAddDocsContextUncancelled pins the one-worker staging contract: a
// cancellable context that is never cancelled (batch staged, then
// merged) gives the same report and corpus as a Done-less context
// (documents committed directly).
func TestAddDocsContextUncancelled(t *testing.T) {
	mk := func() []Doc {
		return []Doc{
			{Label: "good", R: strings.NewReader("<r><a></a><b></b></r>")},
			{Label: "bad", R: strings.NewReader("<r><unclosed>")},
			{Label: "good 2", R: strings.NewReader("<r><a></a></r>")},
		}
	}
	xa := NewExtraction()
	ra, ea := xa.AddDocsParallelContext(context.Background(), mk(), 1, nil, SkipAndRecord)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	xb := NewExtraction()
	rb, eb := xb.AddDocsParallelContext(ctx, mk(), 1, nil, SkipAndRecord)
	if (ea == nil) != (eb == nil) || ra.Accepted != rb.Accepted || ra.Rejected != rb.Rejected {
		t.Errorf("staged batch diverged: %+v/%v vs %+v/%v", ra, ea, rb, eb)
	}
	if snapshot(xa) != snapshot(xb) {
		t.Errorf("corpus diverged: %s vs %s", snapshot(xa), snapshot(xb))
	}
}
