package gfa

import (
	"math/rand"
	"testing"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/soa"
)

// Micro-benchmarks for the rewrite machinery: full rewriting of the
// paper's running automaton, closure computation, and rewriting of large
// random SOREs (the O(n^4) bound of Theorem 1 in practice).

func BenchmarkRewriteFigure1(b *testing.B) {
	a := soa.Infer([][]string{split("bacacdacde"), split("cbacdbacde"), split("abccaadcde")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rewrite(ctx, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	alpha := make([]string, 26)
	for i := range alpha {
		alpha[i] = string(rune('a' + i))
	}
	target := regextest.RandomSORE(rng, alpha, 5)
	g := FromSOA(soa.FromExpr(target))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closure()
	}
}

func BenchmarkRewriteBySize(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		alpha := make([]string, n)
		for i := range alpha {
			alpha[i] = "s" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		// A SORE using every symbol keeps the automaton size at n.
		rng := rand.New(rand.NewSource(int64(n)))
		var target *regex.Expr
		for {
			target = regextest.RandomSORE(rng, alpha, 6)
			if len(target.Symbols()) == n {
				break
			}
		}
		a := soa.FromExpr(target)
		b.Run(itoa(n)+"sym", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Rewrite(ctx, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
