// Noisy: the Section 9 noise scenario. The paper found 89% of crawled
// XHTML documents invalid, with a dozen disallowed children scattered over
// more than 30000 paragraph elements. This example generates such a noisy
// corpus of <p> child sequences and contrasts three inferences:
//
//   - plain iDTD keeps the noise symbols in the content model;
//   - support-threshold pruning (the "obvious way") drops them up front;
//   - the noise-aware iDTD drops weakly-supported edges only when the
//     rewriting gets stuck.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"dtdinfer"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/soa"
)

func main() {
	// The paper's scale: over 30000 paragraph occurrences with about ten
	// disallowed children among them.
	sample, alphabet := corpus.XHTMLParagraphs(7, 30000, 10)
	fmt.Printf("corpus: %d paragraph sequences over %d inline elements, 10 noisy\n",
		len(sample), len(alphabet))

	plain, err := dtdinfer.InferContentModel(sample, dtdinfer.IDTD, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplain iDTD keeps the noise (%d symbols):\n  %s\n",
		len(plain.Symbols()), clip(plain.String()))

	// Support-threshold pruning before inference.
	a := soa.Infer(sample)
	reportSupports(a)
	a.PruneSupport(10, 0)
	pruned, err := idtd.FromSOA(context.Background(), a, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter pruning symbols with support < 10 (%d symbols):\n  %s\n",
		len(pruned.Expr.Symbols()), clip(pruned.Expr.String()))

	if got, want := len(pruned.Expr.Symbols()), len(alphabet); got != want {
		fmt.Printf("WARNING: expected the %d clean symbols, got %d\n", want, got)
	}

	// Noise-aware iDTD: thresholded edge dropping only when stuck.
	opts := &dtdinfer.Options{}
	opts.IDTD.NoiseThreshold = 5
	aware, err := dtdinfer.InferContentModel(sample, dtdinfer.IDTD, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnoise-aware iDTD (threshold 5, %d symbols):\n  %s\n",
		len(aware.Symbols()), clip(aware.String()))
}

func reportSupports(a *soa.SOA) {
	type sup struct {
		sym string
		n   int
	}
	var weak []sup
	for _, s := range a.Symbols() {
		if n := a.SymbolSupport(s); n < 10 {
			weak = append(weak, sup{s, n})
		}
	}
	sort.Slice(weak, func(i, j int) bool { return weak[i].sym < weak[j].sym })
	fmt.Println("\nweakly supported symbols (the injected noise):")
	for _, w := range weak {
		fmt.Printf("  %-8s support %d\n", w.sym, w.n)
	}
}

func clip(s string) string {
	if len(s) <= 120 {
		return s
	}
	return s[:58] + " ... " + s[len(s)-58:]
}
