package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// traffic is one dtdserved process under open-loop load: a validate
// stream and an ingest stream to the workload's tenant.
type traffic struct {
	r       *run
	s       *server
	before  map[string]float64
	vc, ic  *http.Client
	vn, in  int // requests sent so far, so documents are never reused
	version uint64
}

// startTraffic boots dtdserved on the workload's summary.
func (r *run) startTraffic() (*traffic, error) {
	r.attempted++
	s, err := startServer(filepath.Join(r.bin, "dtdserved"), r.dataDir())
	if err != nil {
		r.failed++
		return nil, err
	}
	before, err := s.metrics()
	if err != nil {
		s.kill()
		return nil, err
	}
	return &traffic{r: r, s: s, before: before, vc: newConnClient(), ic: newConnClient()}, nil
}

// step drives both streams for d at the given rates; a zero rate leaves
// its stream idle.
func (t *traffic) step(validateRate, ingestRate float64, d time.Duration) stepResult {
	c, prefix := t.r.c, "/v1/tenants/"+t.r.c.name
	validate := streamSpec{rate: validateRate, next: func(k int) request {
		doc := c.validate[k%len(c.validate)]
		return request{path: prefix + "/validate", body: doc.body, check: validateCheck(doc.valid)}
	}}
	ingest := streamSpec{rate: ingestRate, next: func(k int) request {
		return request{path: prefix + "/documents", body: c.fresh[k%len(c.fresh)], check: versionCheck(&t.version)}
	}}
	return runStep(t.vc, t.ic, t.s.base, validate, ingest, d, &t.vn, &t.in)
}

// finish scrapes /metrics and the peak RSS, then drains the daemon. It
// returns the counter deltas over the traffic.
func (t *traffic) finish() (map[string]float64, float64, error) {
	after, merr := t.s.metrics()
	rss, rerr := t.s.peakRSSMB()
	t.r.stop(t.s)
	if merr != nil {
		return nil, 0, merr
	}
	if rerr != nil {
		return nil, 0, rerr
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - t.before[k]
	}
	return delta, rss, nil
}

// account adds a step's requests to the run's counts and checks.
func (r *run) account(st stepResult) {
	for _, ss := range [][]sample{st.validate, st.ingest} {
		a, f, wrong := counts(ss)
		r.attempted += a
		r.failed += f
		r.fail(wrong)
	}
}

// reportSteps reports the base-rate latencies (steps[0]) and the
// sustained rate: the achieved rate of the highest step reached with
// every step up to it passing the limits, so the value is measured
// rather than the offered rate.
func (r *run) reportSteps(steps []stepResult) {
	sustained := 0.0
	passing := true
	for i, st := range steps {
		r.account(st)
		pass := st.passes(r.w.limits)
		fmt.Printf("step %d: offered %.1f req/s, completed %.1f req/s, validate %s, ingest %s, pass %v\n",
			i, st.rate, st.completed(), describe(st.validate), describe(st.ingest), pass)
		passing = passing && pass
		if passing {
			sustained = st.completed()
		}
	}
	// The p90s are printed above but not reported: across seeds they
	// spread by more than any bound the result format allows (NOTES.md).
	r.put("validate_p50_ms", "ms", percentile(latencies(steps[0].validate), 50))
	r.put("ingest_p50_ms", "ms", percentile(latencies(steps[0].ingest), 50))
	r.put("sustained_rps", "req/s", sustained)
}

// tracedWindows is how many base-rate windows the traced run sends.
const tracedWindows = 4

// tracedTraffic runs a few base-rate windows and reports the server's and
// the generator's own counters.
func (r *run) tracedTraffic() error {
	tr, err := r.startTraffic()
	if err != nil {
		return err
	}
	r.account(r.window(tr, warmup))
	var st stepResult
	for i := 0; i < tracedWindows; i++ {
		st.add(r.window(tr, r.share(r.w.baseShare/rounds)))
	}
	delta, _, err := tr.finish()
	if err != nil {
		return err
	}
	r.account(st)
	fmt.Printf("traffic: validate %s, ingest %s\n", describe(st.validate), describe(st.ingest))
	refreshes := delta["dtdserved_refreshes_total"]
	r.put("server.refreshes", "count", refreshes)
	r.put("server.docs_per_refresh", "ratio", delta["dtdserved_ingest_accepted_total"]/nonzero(refreshes))
	r.put("server.queue_full", "count", delta["dtdserved_queue_full_total"])
	hits := delta["dtdserved_cache_hits_total"]
	lookups := hits + delta["dtdserved_cache_misses_total"] + delta["dtdserved_cache_recomputes_total"]
	r.put("server.cache_hit_ratio", "ratio", hits/nonzero(lookups))
	r.put("server.ingest_rejected", "count", delta["dtdserved_ingest_rejected_total"])
	r.put("server.validate_p90_ms", "ms", percentile(latencies(st.validate), 90))
	r.put("server.ingest_p90_ms", "ms", percentile(latencies(st.ingest), 90))
	var lates []float64
	for _, s := range append(append([]sample(nil), st.validate...), st.ingest...) {
		lates = append(lates, ms(s.late))
	}
	r.put("loadgen.sent", "count", float64(len(lates)))
	r.put("loadgen.conns", "count", 2)
	r.put("loadgen.late_p90_ms", "ms", percentile(lates, 90))
	return nil
}

// nonzero guards a denominator.
func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// describe renders a latency series: count, median, p90 and the highest
// percentile with at least ten samples beyond it.
func describe(ss []sample) string {
	if len(ss) == 0 {
		return "n=0"
	}
	l := latencies(ss)
	out := fmt.Sprintf("n=%d p50=%.2fms p90=%.2fms", len(l), percentile(l, 50), percentile(l, 90))
	if p := tailPercentile(len(l)); p > 90 {
		out += fmt.Sprintf(" p%g=%.2fms", p, percentile(l, p))
	}
	return out
}
