package fluid

import (
	"fmt"
	"testing"
)

// BenchmarkFluidSolve pins the O(1)-in-N claim: the solve at N = 10⁶
// must cost the same as at N = 10³ (the buffered variants scale only
// with buffer depth). docs/fluid.md describes it.
func BenchmarkFluidSolve(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("unbuffered/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unbuffered(n, 4, 0.1, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("buffered/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BufferedFinite(n, 4, 0.1, 1, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
