package dtdinfer_test

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dtdinfer"
)

func docs(srcs ...string) []io.Reader {
	out := make([]io.Reader, len(srcs))
	for i, s := range srcs {
		out[i] = strings.NewReader(s)
	}
	return out
}

// Inferring a DTD from documents with iDTD, the paper's SORE engine.
func ExampleInferDTD() {
	d, err := dtdinfer.InferDTD(docs(
		`<library><book><title>A</title><author>X</author><author>Y</author></book></library>`,
		`<library><book><title>B</title></book></library>`,
	), dtdinfer.IDTD, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(d)
	// Output:
	// <!DOCTYPE library [
	// <!ELEMENT author (#PCDATA)>
	// <!ELEMENT book (title,author*)>
	// <!ELEMENT library (book)>
	// <!ELEMENT title (#PCDATA)>
	// ]>
}

// Learning a single content model from positive example strings; the
// sample here is the paper's running example, recovered as the SORE
// ((b?(a+c))+d)+e of Figures 1-3.
func ExampleInferContentModel() {
	sample := [][]string{
		{"b", "a", "c", "a", "c", "d", "a", "c", "d", "e"},
		{"c", "b", "a", "c", "d", "b", "a", "c", "d", "e"},
		{"a", "b", "c", "c", "a", "a", "d", "c", "d", "e"},
	}
	e, err := dtdinfer.InferContentModel(sample, dtdinfer.IDTD, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(e.DTDString())
	// Output:
	// ((b?,(a|c))+,d)+,e
}

// CRX generalizes from very few strings — the sparse-data setting.
func ExampleInferContentModel_crx() {
	sample := [][]string{
		{"a", "b", "d"},
		{"b", "c", "d", "e", "e"},
		{"c", "a", "d", "e"},
	}
	e, err := dtdinfer.InferContentModel(sample, dtdinfer.CRX, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(e)
	// Output:
	// (a + b + c)+ d e*
}

// Validating documents against an inferred schema.
func ExampleNewValidator() {
	d, err := dtdinfer.ParseDTD(`<!DOCTYPE r [
<!ELEMENT r (x+)>
<!ELEMENT x (#PCDATA)>
]>`)
	if err != nil {
		panic(err)
	}
	v := dtdinfer.NewValidator(d)
	fmt.Println(v.ValidDocument(`<r><x>1</x></r>`))
	fmt.Println(v.ValidDocument(`<r></r>`))
	// Output:
	// true
	// false
}

// Incremental CHARE inference: summarize batches, merge, infer.
func ExampleNewIncrementalCRX() {
	inc := dtdinfer.NewIncrementalCRX([][]string{
		{"customer", "item", "total"},
		{"customer", "item", "item", "total"},
	})
	later := dtdinfer.NewIncrementalCRX([][]string{{"customer", "total"}})
	inc.Merge(later)

	res, err := inc.Infer(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Expr)
	// Output:
	// customer item* total
}
