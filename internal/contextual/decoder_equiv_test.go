package contextual

import (
	"reflect"
	"strings"
	"testing"

	"dtdinfer/internal/dtd"
)

// Differential test: the contextual extraction loop must behave
// identically over the fast structure tokenizer, over the encoding/xml
// token source, and as the reference encoding/xml loop (extractOneStd)
// — same acceptance, same per-context state — under no caps and tight
// caps, at several context widths.
func TestContextualDecoderEquivalence(t *testing.T) {
	corpus := []string{
		`<a/>`,
		`<db><rec id="a1"><name>n1</name></rec><rec><name/></rec></db>`,
		`<book><name>t</name><author><name>a</name></author></book>`,
		`<a>t1<b/>t2<b/>t3</a>`,
		`<a><![CDATA[raw]]></a>`,
		"<a>\n\t\n</a>",
		`<a xmlns:x="u" x:y="1"><x:b/></a>`,
		`<!DOCTYPE r [<!ELEMENT r (a)>]><r><a/></r>`,
		`<?pi data?><a/><!--c-->`,
		`<日本語><子>値</子></日本語>`,
		strings.Repeat("<d>", 30) + "x" + strings.Repeat("</d>", 30),
		// Rejected inputs.
		``,
		`<a>`,
		`<a><b></a></b>`,
		`<a>&undefined;</a>`,
		"<a>\xff\xfe</a>",
	}
	capsList := []dtd.IngestOptions{
		{},
		{MaxDepth: 10, MaxTokens: 64, MaxNames: 4, MaxBytes: 1 << 10},
	}
	for _, k := range []int{0, 1, 2} {
		for _, caps := range capsList {
			fastOpts, stdOpts := caps, caps
			fastOpts.Decoder = dtd.DecoderFast
			stdOpts.Decoder = dtd.DecoderStd
			for _, doc := range corpus {
				xf := NewExtraction(k)
				errF := xf.AddDocumentOptions(strings.NewReader(doc), &fastOpts)
				xs := NewExtraction(k)
				errS := xs.AddDocumentOptions(strings.NewReader(doc), &stdOpts)
				xr := NewExtraction(k)
				errR := xr.extractOneStd(strings.NewReader(doc), caps)
				if (errF == nil) != (errR == nil) || (errS == nil) != (errR == nil) {
					t.Fatalf("k=%d caps=%+v: acceptance differs for %q:\nfast: %v\nstd:  %v\nref:  %v",
						k, caps, doc, errF, errS, errR)
				}
				if errS != nil && errS.Error() != errR.Error() {
					t.Fatalf("k=%d caps=%+v: std error differs from reference for %q:\nstd: %v\nref: %v",
						k, caps, doc, errS, errR)
				}
				if errF != nil {
					continue
				}
				if !reflect.DeepEqual(xf, xr) {
					t.Fatalf("k=%d caps=%+v: fast extraction differs for %q:\nfast: %+v\nref:  %+v",
						k, caps, doc, xf, xr)
				}
				if !reflect.DeepEqual(xs, xr) {
					t.Fatalf("k=%d caps=%+v: std extraction differs for %q:\nstd: %+v\nref: %+v",
						k, caps, doc, xs, xr)
				}
			}
		}
	}
}
