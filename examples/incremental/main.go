// Incremental: the Section 9 incremental-recomputation scenario. XML data
// arrives in batches (answers to queries trickling in over time); instead
// of re-reading everything, only a compact summary is kept — the →W order
// relation plus capped occurrence profiles for CRX — and the inferred
// expression is refreshed from the summary after each batch.
package main

import (
	"context"
	"fmt"
	"log"

	"dtdinfer"
)

// Three arriving batches of content sequences for an <order> element.
var batches = [][][]string{
	{
		{"customer", "item", "total"},
		{"customer", "item", "item", "total"},
	},
	{
		{"customer", "item", "total", "note"},
		{"customer", "item", "item", "item", "total"},
	},
	{
		{"customer", "coupon", "item", "total"},
		{"customer", "coupon", "item", "item", "total", "note"},
	},
}

func main() {
	ctx := context.Background()
	inc := dtdinfer.NewIncrementalCRX(nil)
	for i, batch := range batches {
		// Summarize only the new strings, then merge — the XML that
		// produced them can be forgotten.
		inc.Merge(dtdinfer.NewIncrementalCRX(batch))

		res, err := inc.Infer(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after batch %d (%d strings total): %s\n",
			i+1, inc.Total(), res.Expr)
	}

	// The incremental result is identical to a batch run over all data.
	var all [][]string
	for _, b := range batches {
		all = append(all, b...)
	}
	batchExpr, err := dtdinfer.InferContentModel(all, dtdinfer.CRX, nil)
	if err != nil {
		log.Fatal(err)
	}
	incRes, err := inc.Infer(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch result     : %s\n", batchExpr)
	fmt.Printf("incremental equal: %v\n", batchExpr.String() == incRes.Expr.String())
}
