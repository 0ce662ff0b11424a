package dtd

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestReviewShardAttCapDivergence(t *testing.T) {
	// Doc A: one occurrence of attr a="X".
	// Doc B: 256 distinct values (fills the per-shard cap).
	// Doc C: a="X" again.
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < maxAttValues; i++ {
		fmt.Fprintf(&b, `<e a="v%d"/>`, i)
	}
	b.WriteString("</r>")
	docA := `<r><e a="X"/></r>`
	docB := b.String()
	docC := `<r><e a="X"/></r>`

	mk := func() []Doc {
		return []Doc{
			{R: strings.NewReader(docA)},
			{R: strings.NewReader(docB)},
			{R: strings.NewReader(docC)},
		}
	}

	seq := NewExtraction()
	if _, err := seq.AddDocsParallelContext(context.Background(), mk(), 1, nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	par := NewExtraction()
	// 2 workers -> shards; docC should land in a later shard than docA.
	if _, err := par.AddDocsParallelContext(t.Context(), mk(), 2, nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	sx := seq.Attributes["e"]["a"].values["X"]
	px := par.Attributes["e"]["a"].values["X"]
	t.Logf("seq X count=%d par X count=%d overflow seq=%v par=%v",
		sx, px, seq.Attributes["e"]["a"].overflow, par.Attributes["e"]["a"].overflow)
	if sx != px {
		t.Errorf("divergence: sequential X=%d parallel X=%d", sx, px)
	}
}
