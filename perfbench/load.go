package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// The load generator is open loop: each stream sends on a fixed schedule
// whether or not earlier requests have completed, and every latency is
// timed from when the request was due, so a stall also charges the
// requests queued behind it. Validates and ingests travel on separate
// streams, one keep-alive connection each, so a slow schema refresh
// cannot hold a validate behind it in the client.

// request is one scheduled call and the check its answer must pass.
type request struct {
	path string
	body []byte
	// check inspects a 200 answer and reports whether it is correct.
	check func(body []byte) error
}

// sample is one request's outcome.
type sample struct {
	latency time.Duration // done − due
	late    time.Duration // sent − due
	failed  bool          // refused, 5xx/429, transport error or timeout
	wrong   error         // a 200 answer that failed its check
}

// streamSpec is one scheduled stream: rate requests per second, the
// k-th request produced by next(k).
type streamSpec struct {
	rate float64
	next func(k int) request
}

// newConnClient returns a client that keeps exactly one connection.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runStream sends the stream's requests due in [start, start+d) over c,
// one at a time, and returns their samples. counter numbers requests
// across steps, so the validate pool keeps cycling and no fresh ingest
// document is sent twice.
func runStream(c *http.Client, base string, spec streamSpec, start time.Time, d time.Duration, counter *int) []sample {
	var out []sample
	if spec.rate <= 0 {
		return out
	}
	interval := time.Duration(float64(time.Second) / spec.rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= d {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		req := spec.next(*counter)
		*counter++
		sent := time.Now()
		s := sample{late: sent.Sub(due)}
		body, status, err := post(c, base+req.path, req.body)
		s.latency = time.Since(due)
		switch {
		case err != nil || status != http.StatusOK:
			s.failed = true
		default:
			s.wrong = req.check(body)
		}
		out = append(out, s)
	}
}

func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/xml", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// stepResult is one rate step of the ladder, or the base-rate windows
// added together.
type stepResult struct {
	rate     float64 // offered requests per second, both streams
	validate []sample
	ingest   []sample
	// vElapsed and iElapsed run from a window's start to its stream's
	// last completion, summed over the step's windows.
	vElapsed, iElapsed time.Duration
}

// add appends another window's samples to the step.
func (r *stepResult) add(o stepResult) {
	r.validate = append(r.validate, o.validate...)
	r.ingest = append(r.ingest, o.ingest...)
	r.vElapsed += o.vElapsed
	r.iElapsed += o.iElapsed
}

// runStep drives both streams concurrently for d.
func runStep(vc, ic *http.Client, base string, v, in streamSpec, d time.Duration, vn, inN *int) stepResult {
	start := time.Now()
	r := stepResult{rate: v.rate + in.rate}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.validate = runStream(vc, base, v, start, d, vn)
		r.vElapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		r.ingest = runStream(ic, base, in, start, d, inN)
		r.iElapsed = time.Since(start)
	}()
	wg.Wait()
	return r
}

// latencies returns latencies in ms, failed requests as +Inf.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
		if s.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// counts tallies attempted, failed and wrong answers.
func counts(ss []sample) (attempted, failed int, wrong error) {
	for _, s := range ss {
		attempted++
		if s.failed {
			failed++
		}
		if s.wrong != nil && wrong == nil {
			wrong = s.wrong
		}
	}
	return attempted, failed, wrong
}

// limits are the latency limits a step must meet at p90.
type limits struct {
	validate, ingest time.Duration
}

// passes reports whether the step meets both p90 limits with no growing
// backlog: the generator's last quarter of sends must not run later than
// the validate limit.
func (r stepResult) passes(l limits) bool {
	if len(r.validate) == 0 || percentile(latencies(r.validate), 90) > ms(l.validate) {
		return false
	}
	if len(r.ingest) > 0 && percentile(latencies(r.ingest), 90) > ms(l.ingest) {
		return false
	}
	for _, ss := range [][]sample{r.validate, r.ingest} {
		tail := ss[len(ss)*3/4:]
		lates := make([]float64, len(tail))
		for i, s := range tail {
			lates[i] = ms(s.late)
		}
		if len(tail) > 0 && median(lates) > ms(l.validate) {
			return false
		}
	}
	return true
}

// completed is the step's achieved throughput in requests per second:
// each stream's answered requests over the time that stream ran.
func (r stepResult) completed() float64 {
	rate := 0.0
	for _, st := range []struct {
		ss []sample
		d  time.Duration
	}{{r.validate, r.vElapsed}, {r.ingest, r.iElapsed}} {
		ok := 0
		for _, s := range st.ss {
			if !s.failed {
				ok++
			}
		}
		if ok > 0 {
			rate += float64(ok) / st.d.Seconds()
		}
	}
	return rate
}

// validateCheck expects the known verdict.
func validateCheck(valid bool) func([]byte) error {
	return func(body []byte) error {
		var v struct {
			Valid *bool `json:"valid"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Valid == nil {
			return fmt.Errorf("validate: unreadable answer %q", body)
		}
		if *v.Valid != valid {
			return fmt.Errorf("validate: verdict %v, known answer %v", *v.Valid, valid)
		}
		return nil
	}
}

// versionCheck expects non-decreasing versions across acknowledged
// ingests of one stream.
func versionCheck(last *uint64) func([]byte) error {
	return func(body []byte) error {
		var v struct {
			Version *uint64 `json:"version"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Version == nil {
			return fmt.Errorf("ingest: unreadable answer %q", body)
		}
		if *v.Version < *last {
			return fmt.Errorf("ingest: version went back from %d to %d", *last, *v.Version)
		}
		*last = *v.Version
		return nil
	}
}
