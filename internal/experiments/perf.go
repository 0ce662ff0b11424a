package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
	"dtdinfer/internal/stateelim"
)

// PerfResult reproduces the Section 8.3 performance discussion: example4
// (61 symbols) from 10000 example strings took iDTD 7 s and CRX 3.2 s on
// the authors' 2.5 GHz Pentium 4 (including JVM startup); a "typical"
// 10-symbol expression from a few hundred strings took about a second.
type PerfResult struct {
	// Example4IDTD and Example4CRX are this machine's timings.
	Example4IDTD time.Duration
	Example4CRX  time.Duration
	// TypicalIDTD and TypicalCRX time a 10-symbol expression over 300
	// strings.
	TypicalIDTD time.Duration
	TypicalCRX  time.Duration
	// SampleSize records the example4 sample size used.
	SampleSize int
}

// RunPerf measures the Section 8.3 workloads.
func RunPerf(seed int64) (PerfResult, error) {
	row := Table2[3] // example4
	target := regex.MustParse(row.Original)
	sample := sampleFor(target, row.SampleSize, seed)
	res := PerfResult{SampleSize: len(sample)}
	var err error
	if res.Example4IDTD, err = timeAlgo(sample, core.IDTD); err != nil {
		return res, err
	}
	if res.Example4CRX, err = timeAlgo(sample, core.CRX); err != nil {
		return res, err
	}

	typical := regex.MustParse("a1 a2? (a3 + a4 + a5)* a6 (a7 + a8)? a9* a10")
	tsample := sampleFor(typical, 300, seed+1)
	if res.TypicalIDTD, err = timeAlgo(tsample, core.IDTD); err != nil {
		return res, err
	}
	if res.TypicalCRX, err = timeAlgo(tsample, core.CRX); err != nil {
		return res, err
	}
	return res, nil
}

func timeAlgo(sample [][]string, algo core.Algorithm) (time.Duration, error) {
	start := time.Now()
	if _, err := core.InferSampleExpr(smp.FromStrings(sample), algo, nil); err != nil {
		return 0, fmt.Errorf("experiments: %s failed: %w", algo, err)
	}
	return time.Since(start), nil
}

// FormatPerf renders the timings next to the paper's.
func FormatPerf(r PerfResult) string {
	var b strings.Builder
	b.WriteString(header("Section 8.3: performance"))
	fmt.Fprintf(&b, "example4, %d strings, 61 symbols:\n", r.SampleSize)
	fmt.Fprintf(&b, "  iDTD : %v   (paper: 7 s on a 2.5 GHz P4, incl. JVM startup)\n", r.Example4IDTD)
	fmt.Fprintf(&b, "  crx  : %v   (paper: 3.2 s)\n", r.Example4CRX)
	fmt.Fprintf(&b, "typical 10-symbol expression, 300 strings:\n")
	fmt.Fprintf(&b, "  iDTD : %v   (paper: about a second)\n", r.TypicalIDTD)
	fmt.Fprintf(&b, "  crx  : %v\n", r.TypicalCRX)
	return b.String()
}

// ConcisenessResult reproduces the introduction's contrast between state
// elimination (expression (†)) and rewrite (expression (‡)) on the
// Figure 1 automaton.
type ConcisenessResult struct {
	StateElim       *regex.Expr
	Rewrite         *regex.Expr
	StateElimTokens int
	RewriteTokens   int
	// Trace is the rewrite derivation, matching Figure 3 step by step.
	Trace []string
}

// RunConciseness runs both translations on the Figure 1 automaton.
func RunConciseness() (ConcisenessResult, error) {
	sample := [][]string{
		split("bacacdacde"), split("cbacdbacde"), split("abccaadcde"),
	}
	ctx := context.TODO()
	a := soa.Infer(sample)
	big, err := stateelim.FromSOA(ctx, a)
	if err != nil {
		return ConcisenessResult{}, fmt.Errorf("experiments: state elimination failed: %w", err)
	}
	g := gfa.FromSOA(a)
	g.EnableTrace()
	if err := g.Saturate(ctx); err != nil {
		return ConcisenessResult{}, err
	}
	small, err := g.Result()
	if err != nil {
		return ConcisenessResult{}, fmt.Errorf("experiments: rewrite failed: %w", err)
	}
	return ConcisenessResult{
		StateElim:       big,
		Rewrite:         small,
		StateElimTokens: big.Tokens(),
		RewriteTokens:   small.Tokens(),
		Trace:           g.Trace(),
	}, nil
}

func split(w string) []string {
	out := make([]string, len(w))
	for i, r := range w {
		out[i] = string(r)
	}
	return out
}

// FormatConciseness renders the contrast.
func FormatConciseness(r ConcisenessResult) string {
	var b strings.Builder
	b.WriteString(header("Introduction / Figures 1-3: state elimination vs rewrite"))
	fmt.Fprintf(&b, "automaton: Figure 1 (W = {bacacdacde, cbacdbacde, abccaadcde})\n")
	fmt.Fprintf(&b, "rewrite derivation (Figure 3):\n")
	for i, step := range r.Trace {
		fmt.Fprintf(&b, "  (%d) %s\n", i+1, step)
	}
	fmt.Fprintf(&b, "rewrite (‡)        : %s   [%d tokens]\n", r.Rewrite, r.RewriteTokens)
	fmt.Fprintf(&b, "state elimination (†): %d tokens\n", r.StateElimTokens)
	fmt.Fprintf(&b, "  %s\n", shorten(r.StateElim.String()))
	fmt.Fprintf(&b, "blow-up factor     : %.1fx\n",
		float64(r.StateElimTokens)/float64(r.RewriteTokens))
	return b.String()
}
