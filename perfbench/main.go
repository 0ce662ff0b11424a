// Command perfbench is the repository benchmark. It generates a
// workload's inputs from a seed, runs the shipped dtdinfer and dtdserved
// binaries on them as a user would, checks every output, and prints one
// JSON result line. With -trace 1 it instead calls each layer's public
// functions directly on the same inputs, records spans around the calls
// and reports per-layer metrics.
//
//	perfbench -workload protein-100mb|wide-schema -seed N
//	          -seconds S -trace 0|1
//
// It runs from the root of a checkout after perfbench/run.sh has built
// the binaries into .bench_build/bin; see perfbench/NOTES.md for the
// workloads, their sizes and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark input set and the traffic run against it.
type workload struct {
	name string
	// corpus names the generated corpus: dtdinfer infers it, and
	// dtdserved recovers it as the tenant of the same name.
	corpus string
	// validateRate and ingestRate are the base-rate streams in
	// requests per second; the ladder multiplies the validate rate.
	validateRate, ingestRate float64
	ladder                   []float64
	limits                   limits
	// baseShare of the measured seconds goes to base-rate traffic,
	// split into rounds windows, each after one dtdinfer run; each
	// ladder step then takes stepShare.
	baseShare, stepShare float64
	// ingestsAlone, when set, sends the ingests apart from the
	// validates: each window's validates first, then this many ingests
	// at ingestRate with no other traffic, and the ladder carries
	// validates only. Otherwise both streams run together throughout.
	ingestsAlone int
}

// rounds interleaves dtdinfer runs with base-rate traffic windows, so
// both sample the whole run rather than one stretch of it.
const rounds = 10

// warmup is the base-rate traffic sent before any latency counts, so
// connections, the daemon's lazy state and its heap have settled. Its
// answers are still checked.
const warmup = time.Second

var workloads = []workload{
	{
		name: "protein-100mb", corpus: "protein",
		validateRate: 90, ingestRate: 10, ladder: []float64{2, 4},
		limits:    limits{validate: 50 * time.Millisecond, ingest: 100 * time.Millisecond},
		baseShare: 0.5, stepShare: 0.08,
	},
	{
		name: "wide-schema", corpus: "wide",
		validateRate: 45, ingestRate: 0.5, ladder: []float64{2, 4},
		limits:    limits{validate: 50 * time.Millisecond, ingest: 5 * time.Second},
		baseShare: 0.2, stepShare: 0.06, ingestsAlone: 1,
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's state.
type run struct {
	w       workload
	seed    int64
	seconds float64
	nproc   int
	bin     string // directory holding dtdinfer and dtdserved
	work    string // scratch directory of this run
	c       *corpusInput

	attempted, failed int
	wrong             []error
	metrics           map[string]metric
}

func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records an incorrect output; the run continues so every metric
// is still reported, but correct becomes false.
func (r *run) fail(err error) {
	if err != nil {
		r.wrong = append(r.wrong, err)
		fmt.Println("check failed:", err)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launch(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 35, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	bin, err := filepath.Abs(filepath.Join(".bench_build", "bin"))
	if err != nil {
		return err
	}
	for _, b := range []string{"dtdinfer", "dtdserved"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return fmt.Errorf("binary missing (run perfbench/run.sh): %w", err)
		}
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{w: *w, seed: seed, seconds: seconds, nproc: runtime.NumCPU(), bin: bin, work: work,
		metrics: map[string]metric{}}
	stamp := machineStamp()
	out, _ := json.Marshal(stamp)
	fmt.Printf("machine: %s\n", out)

	t0 := time.Now()
	if err := r.prepare(); err != nil {
		return err
	}
	fmt.Printf("inputs prepared in %.1fs (untimed)\n", time.Since(t0).Seconds())
	if traced {
		err = r.traced(stamp)
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return err
	}
	if r.attempted == 0 {
		return errors.New("no operation attempted")
	}
	for k, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd measures the user-visible metrics with tracing off: set-up
// first, then rounds of one dtdinfer run followed by one base-rate
// traffic window, then the ladder.
func (r *run) endToEnd() error {
	if err := r.bootPhase(); err != nil {
		return err
	}
	tr, err := r.startTraffic()
	if err != nil {
		return err
	}
	r.account(r.window(tr, warmup))
	window := r.share(r.w.baseShare / rounds)
	var walls, rss []float64
	base := stepResult{rate: r.w.validateRate + r.w.ingestRate}
	for i := 0; i < rounds; i++ {
		res, err := r.inferOnce()
		if err != nil {
			tr.s.kill()
			return err
		}
		walls = append(walls, secs(res.wall))
		rss = append(rss, res.rssMB)
		base.add(r.window(tr, window))
	}
	steps := []stepResult{base}
	ladderIngest := r.w.ingestRate
	if r.w.ingestsAlone > 0 {
		ladderIngest = 0
	}
	for _, f := range r.w.ladder {
		st := tr.step(r.w.validateRate*f, ladderIngest, r.share(r.w.stepShare))
		if !st.passes(r.w.limits) {
			// A step fails only if it fails twice in a row, so a stall
			// of a few seconds on a shared host does not end the ladder.
			r.account(st)
			fmt.Printf("ladder step at %.1f req/s failed once (validate %s, ingest %s); repeating it\n",
				st.rate, describe(st.validate), describe(st.ingest))
			st = tr.step(r.w.validateRate*f, ladderIngest, r.share(r.w.stepShare))
		}
		steps = append(steps, st)
	}
	_, srss, err := tr.finish()
	if err != nil {
		return err
	}
	fmt.Printf("batch: infer_s %v\n", walls)
	r.put("infer_s", "s", median(walls))
	r.put("peak_rss_mb", "MB", median(rss))
	r.put("serve_rss_mb", "MB", srss)
	r.reportSteps(steps)
	return nil
}

// window sends one base-rate traffic window of d. With ingestsAlone set,
// the ingests follow the validates with no other traffic: on the wide
// corpus each one re-infers the 112-symbol root and the ~100 copies its
// document touches, about a second with both cores busy at first, and
// validates sharing that second measured how often they landed in a
// refresh more than how fast they were.
func (r *run) window(tr *traffic, d time.Duration) stepResult {
	if r.w.ingestsAlone == 0 {
		return tr.step(r.w.validateRate, r.w.ingestRate, d)
	}
	st := tr.step(r.w.validateRate, 0, d)
	// Half an interval short of ingestsAlone intervals sends exactly
	// ingestsAlone requests.
	span := (float64(r.w.ingestsAlone) - 0.5) / r.w.ingestRate
	st.add(tr.step(0, r.w.ingestRate, time.Duration(span*float64(time.Second))))
	st.rate = r.w.validateRate + r.w.ingestRate
	return st
}

// freshNeeded is how many fresh documents the ingest stream can send in
// one run: the warm-up, the base windows and every ladder step run
// twice, plus a margin.
func (r *run) freshNeeded() int {
	if r.w.ingestsAlone > 0 {
		return (rounds+1)*r.w.ingestsAlone + 16
	}
	traffic := warmup.Seconds() + r.seconds*(r.w.baseShare+2*float64(len(r.w.ladder))*r.w.stepShare)
	return int(math.Ceil(r.w.ingestRate*traffic)) + 16
}

// share converts a share of the measured seconds to a duration.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// inferOnce runs dtdinfer over the corpus, timed from exec to exit, and
// checks its output against the reference.
func (r *run) inferOnce() (inferRun, error) {
	r.attempted++
	res, err := runDtdinfer(filepath.Join(r.bin, "dtdinfer"), r.c.inferArgs(r.nproc, ""))
	if err != nil {
		r.failed++
		return res, err
	}
	if res.hash != r.c.refHash {
		r.fail(fmt.Errorf("dtdinfer output: hash %s, reference %s", res.hash, r.c.refHash))
	}
	return res, nil
}

// bootCount is how many times the set-up is measured per run.
const bootCount = 11

// bootPhase boots dtdserved on the workload's summary bootCount times
// and checks on every boot that the recovered tenant serves the
// reference DTD byte for byte.
func (r *run) bootPhase() error {
	var boots []float64
	for i := 0; i < bootCount; i++ {
		r.attempted++
		s, err := startServer(filepath.Join(r.bin, "dtdserved"), r.dataDir())
		if err != nil {
			r.failed++
			return err
		}
		boots = append(boots, secs(s.boot))
		got, err := s.get("/v1/tenants/" + r.c.name + "/dtd")
		if err != nil {
			r.fail(err)
		} else if got != r.c.refDTD {
			r.fail(fmt.Errorf("recovered tenant %s serves a DTD that differs from the reference", r.c.name))
		}
		r.stop(s)
	}
	fmt.Printf("boot: setup_s %v\n", boots)
	r.put("setup_s", "s", median(boots))
	return nil
}

// stop drains a dtdserved process. A drain that does not exit 0 fails
// the process's operation; the run goes on, since the process is gone.
func (r *run) stop(s *server) {
	if err := s.stop(); err != nil {
		r.failed++
		fmt.Println("dtdserved drain failed:", err)
	}
}

func (r *run) dataDir() string { return filepath.Join(r.work, "data") }
