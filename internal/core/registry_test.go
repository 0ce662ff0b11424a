package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dtdinfer/internal/gfa"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
	"dtdinfer/internal/stateelim"
	"dtdinfer/internal/tranglike"
)

func TestRegistryDrivesNamesAndErrors(t *testing.T) {
	want := []string{"idtd", "crx", "rewrite", "xtract", "trang", "stateelim"}
	if got := AlgorithmNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("AlgorithmNames = %v, want %v", got, want)
	}
	if got := AlgorithmList(); got != "idtd, crx, rewrite, xtract, trang or stateelim" {
		t.Errorf("AlgorithmList = %q", got)
	}
	_, err := ParseAlgorithm("bogus")
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered algorithm %q", err, name)
		}
	}
	if len(Learners()) != len(want) {
		t.Errorf("Learners() has %d entries", len(Learners()))
	}
	for _, l := range Learners() {
		if l.Doc == "" {
			t.Errorf("learner %s has no usage doc", l.Algo)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	Register(Learner{Algo: IDTD, Infer: Learners()[0].Infer})
}

// equivalenceSamples exercise dedup-heavy, sparse and empty-containing
// shapes, so multiplicity handling in every engine is on the hook.
func equivalenceSamples() [][][]string {
	return [][][]string{
		split("ab", "abb", "aab", "b"),
		split("ab", "ab", "ab", "abb", "abb", "b", ""),
		split("bacacdacde", "cbacdbacde", "abccaadcde"),
		split("aabb", "aabb", "aabbb"),
		{{"x"}, {"x"}, {"x"}, nil},
		// Under a noise threshold of 2 iDTD's answer here depends on the
		// edge supports: without the multiplicities it differs.
		split("bbcd", "ddac", "ddac", "babd", "babd", "dbd", "bb", "bb"),
	}
}

// ctx is the background context the reference engines run under.
var ctx = context.Background()

// inferWords runs one engine on the counted sample of a verbatim sample.
func inferWords(ws [][]string, algo Algorithm, opts *Options) (*regex.Expr, error) {
	return InferSampleExpr(sample.FromStrings(ws), algo, opts)
}

// TestEnginesInferSampleMatchesInfer checks, engine by engine, that the
// registered learner renders the exact expression its engine gives on the
// verbatim reference input: the automaton soa.Infer folds string by
// string. CRX's summary and XTRACT's distinct strings have their verbatim
// references in their own packages (crx.TestAddSampleMatchesAddString,
// xtract.TestInferMatchesDedupReference).
func TestEnginesInferSampleMatchesInfer(t *testing.T) {
	type engine struct {
		algo       Algorithm
		opts       *Options
		fromString func(*soa.SOA) (*regex.Expr, error)
	}
	idtdWith := func(o *idtd.Options) func(*soa.SOA) (*regex.Expr, error) {
		return func(a *soa.SOA) (*regex.Expr, error) {
			r, err := idtd.FromSOA(ctx, a, o)
			if err != nil {
				return nil, err
			}
			return r.Expr, nil
		}
	}
	// The noise-aware iDTD reads edge supports, so it also holds the
	// registration to the sample's multiplicities.
	noisy := &Options{IDTD: idtd.Options{NoiseThreshold: 2}}
	engines := []engine{
		{IDTD, nil, idtdWith(nil)},
		{IDTD, noisy, idtdWith(&noisy.IDTD)},
		{RewriteOnly, nil, func(a *soa.SOA) (*regex.Expr, error) { return gfa.Rewrite(ctx, a) }},
		{TrangLike, nil, func(a *soa.SOA) (*regex.Expr, error) { return tranglike.FromSOA(ctx, a) }},
		{StateElim, nil, func(a *soa.SOA) (*regex.Expr, error) { return stateelim.FromSOA(ctx, a) }},
	}
	for _, eng := range engines {
		for i, strs := range equivalenceSamples() {
			want, errS := eng.fromString(soa.Infer(strs))
			got, errC := inferWords(strs, eng.algo, eng.opts)
			if (errS == nil) != (errC == nil) {
				t.Errorf("%s sample %d: string err=%v, counted err=%v", eng.algo, i, errS, errC)
				continue
			}
			if errS != nil {
				continue
			}
			if want.String() != got.String() {
				t.Errorf("%s sample %d: counted path diverges:\n  strings: %s\n  counted: %s",
					eng.algo, i, want, got)
			}
		}
	}
}

func TestSOAInferSampleMatchesInfer(t *testing.T) {
	for i, strs := range equivalenceSamples() {
		a := soa.Infer(strs)
		b := soa.InferSample(sample.FromStrings(strs))
		if !reflect.DeepEqual(a.Edges(), b.Edges()) {
			t.Errorf("sample %d: edges differ", i)
		}
		for _, e := range a.Edges() {
			if a.EdgeSupport(e[0], e[1]) != b.EdgeSupport(e[0], e[1]) {
				t.Errorf("sample %d: support(%s→%s) = %d vs %d", i, e[0], e[1],
					a.EdgeSupport(e[0], e[1]), b.EdgeSupport(e[0], e[1]))
			}
		}
	}
}

// TestLearnersHonorCancelledContext runs every registered learner through
// its one verb under an already-cancelled context: each must give up with
// an error matching context.Canceled instead of inferring.
func TestLearnersHonorCancelledContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s := sample.FromStrings(split("bacacdacde", "cbacdbacde", "abccaadcde"))
	for _, l := range Learners() {
		e, err := l.Infer(cancelled, s, &Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want an error matching context.Canceled", l.Algo, e, err)
		}
	}
}
