package crx

import (
	"testing"

	"dtdinfer/internal/datagen"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
)

// BenchmarkCRXBySampleSize measures the near-linear scaling of CRX in the
// sample size (complexity O(m + n³) per Section 7).
func BenchmarkCRXBySampleSize(b *testing.B) {
	target := regex.MustParse("a1? a2 (a3 + a4 + a5 + a6 + a7 + a8)* a9+ a10?")
	for _, n := range []int{100, 1000, 10000} {
		sample := datagen.NewSampler(1).SampleN(target, n)
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inferWords(sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCRXIncrementalAdd measures the cost of folding a counted
// 1024-string sample into the summary.
func BenchmarkCRXIncrementalAdd(b *testing.B) {
	target := regex.MustParse("a1? a2 (a3 + a4 + a5)* a6+")
	set := smp.FromStrings(datagen.NewSampler(2).SampleN(target, 1024))
	st := NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AddSample(set)
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
