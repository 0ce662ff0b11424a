package dtdinfer

// End-to-end round-trip property: for a randomly generated DTD, generate a
// corpus of documents from it, infer a schema back with each algorithm,
// and check that the inferred schema validates the corpus it was learned
// from. With a representative corpus and iDTD, the inferred content models
// must moreover be language-equivalent to (or supersets of) the originals.

import (
	"math/rand"
	"strings"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/core"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
)

// randomDTD builds a DTD shaped like real schemas: a root with a SORE over
// a few section elements, each section a SORE over leaf elements, leaves
// #PCDATA or EMPTY.
func randomDTD(rng *rand.Rand) *dtd.DTD {
	sections := []string{"alpha", "beta", "gamma", "delta"}
	leaves := []string{"t1", "t2", "t3", "t4", "t5", "t6"}
	d := dtd.New("root")
	d.Declare(&dtd.Element{
		Name: "root", Type: dtd.Children,
		Model: regex.Simplify(regextest.RandomSORE(rng, sections, 2)),
	})
	used := map[string]bool{}
	for _, s := range d.Elements["root"].Model.Symbols() {
		used[s] = true
	}
	for _, s := range sections {
		if !used[s] {
			continue
		}
		model := regex.Simplify(regextest.RandomSORE(rng, leaves, 2))
		d.Declare(&dtd.Element{Name: s, Type: dtd.Children, Model: model})
		for _, l := range model.Symbols() {
			if !used[l] {
				used[l] = true
				kind := dtd.PCData
				if rng.Intn(3) == 0 {
					kind = dtd.Empty
				}
				d.Declare(&dtd.Element{Name: l, Type: kind})
			}
		}
	}
	return d
}

func TestEndToEndRoundTripProperty(t *testing.T) {
	for i := 0; i < 25; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		d := randomDTD(rng)
		gen := &datagen.DocGenerator{DTD: d, Sampler: datagen.NewSampler(int64(i))}
		docStrs := gen.GenerateN(120)

		for _, algo := range []Algorithm{IDTD, CRX, TrangLike} {
			inferred, err := InferDTD(readers(docStrs), algo, nil)
			if err != nil {
				t.Fatalf("%s failed on DTD %s: %v", algo, d, err)
			}
			v := NewValidator(inferred)
			for _, doc := range docStrs {
				if !v.ValidDocument(doc) {
					t.Fatalf("%s-inferred DTD rejects its own corpus\noriginal: %s\ninferred: %s\ndoc: %s",
						algo, d, inferred, doc)
				}
			}
		}

		// With iDTD on a representative corpus, each inferred content
		// model is a superset of (often equal to) the original's language.
		x := dtd.NewExtraction()
		for _, doc := range docStrs {
			if err := x.AddDocument(strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		// Inject edge-cover sequences so the sample is representative.
		for _, name := range d.Names() {
			e := d.Elements[name]
			if e.Type == dtd.Children {
				x.AddSequences(name, datagen.EdgeCoverSample(e.Model))
			}
		}
		inferred, err := core.InferDTDFromExtraction(x, IDTD, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range d.Names() {
			e := d.Elements[name]
			if e.Type != dtd.Children {
				continue
			}
			got := inferred.Elements[name]
			if got == nil || got.Type != dtd.Children {
				t.Fatalf("element %s lost its children model", name)
			}
			if !automata.ExprIncludes(got.Model, e.Model) {
				t.Fatalf("inferred %s model %s does not include original %s",
					name, got.Model, e.Model)
			}
			if !automata.ExprEquivalent(got.Model, e.Model) {
				// A strict superset is allowed but should be rare with a
				// representative sample; log for visibility.
				t.Logf("element %s: inferred %s ⊋ original %s", name, got.Model, e.Model)
			}
		}
	}
}
