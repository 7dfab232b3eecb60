package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkGemmF32 runs GemmF32 on one shape against its Go reference (bit for
// bit) and the reference against a float64 product (within rounding); every
// output must be written and nothing else.
func checkGemmF32(t *testing.T, rng *rand.Rand, m, k, n, slack int, withBias bool) {
	t.Helper()
	lda, ldw, ldc := k+slack, k+(slack+1)%4, n+(slack+2)%4
	a, w := strided(rng, m, k, lda), strided(rng, n, k, ldw)
	var bias []float32
	if withBias {
		bias = strided(rng, 1, n, n)
	}
	got, want := nanFilled((m-1)*ldc+n), nanFilled((m-1)*ldc+n)
	GemmF32(got, a, w, bias, m, k, n, ldc, lda, ldw)
	gemmF32Go(want, a, w, bias, m, k, n, ldc, lda, ldw)
	what := fmt.Sprintf("m=%d k=%d n=%d lda=%d ldw=%d ldc=%d bias=%v", m, k, n, lda, ldw, ldc, withBias)
	for i := range got {
		output := i < len(got)-1 && i%ldc < n
		switch {
		case math.Float32bits(got[i]) != math.Float32bits(want[i]):
			t.Fatalf("GemmF32 %s: c[%d] = %v, reference %v", what, i, got[i], want[i])
		case output && got[i] != got[i]:
			t.Fatalf("GemmF32 %s: c[%d] not written, or read a NaN from the slack", what, i)
		case !output && got[i] == got[i]:
			t.Fatalf("GemmF32 %s: wrote c[%d], outside the output", what, i)
		}
	}
	i, o := m-1, n-1
	var f float64
	for p := 0; p < k; p++ {
		f += float64(a[i*lda+p]) * float64(w[o*ldw+p])
	}
	if withBias {
		f += float64(bias[o])
	}
	if d := math.Abs(f - float64(want[i*ldc+o])); d > 1e-5*float64(k+1) {
		t.Fatalf("GemmF32 %s: reference c[%d,%d] = %v, float64 product %v", what, i, o, want[i*ldc+o], f)
	}
}

// TestGemmF32MatchesGo: every k 0–70 against every n 1–20, and every m
// 1–20, each with row-stride slack 0–3 on all three operands and the bias
// present and absent, give the Go reference's bits; so do the serving
// models' shapes.
func TestGemmF32MatchesGo(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for k := 0; k <= 70; k++ {
			for n := 1; n <= 20; n++ {
				checkGemmF32(t, rng, 1+(k+n)%20, k, n, (k+n)%4, (k*n)%3 != 0)
			}
		}
		for m := 1; m <= 20; m++ {
			for _, k := range []int{1, 8, 12, 16, 33} {
				for slack := 0; slack < 4; slack++ {
					checkGemmF32(t, rng, m, k, 1+(m+slack)%9, slack, slack%2 == 0)
				}
			}
		}
		for _, s := range servingShapes {
			checkGemmF32(t, rng, s.m, s.k, s.n, 0, s.bias)
		}
		GemmF32(nil, nil, nil, nil, 0, 4, 0, 0, 4, 4) // nothing to do, nothing touched
	})
}

// TestGemmF32OutputDependsOnItsRowsOnly: an output's bits are those of its
// a row against its w row computed alone, wherever the row and column fall
// in the kernel's tiles.
func TestGemmF32OutputDependsOnItsRowsOnly(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		const m, k, n = 7, 29, 11
		a, w := strided(rng, m, k, k), strided(rng, n, k, k)
		c := make([]float32, m*n)
		GemmF32(c, a, w, nil, m, k, n, n, k, k)
		var one [1]float32
		for i := 0; i < m; i++ {
			for o := 0; o < n; o++ {
				GemmF32(one[:], a[i*k:], w[o*k:], nil, 1, k, 1, 1, k, k)
				if math.Float32bits(one[0]) != math.Float32bits(c[i*n+o]) {
					t.Fatalf("c[%d,%d] = %v in the product, %v alone", i, o, c[i*n+o], one[0])
				}
			}
		}
	})
}

// servingShapes are the float student's products at one image's 16 tokens:
// embed, qkv, mlp1, mlp2 and proj, and attention's scores (read strided in
// the real forward) and context.
var servingShapes = []struct {
	m, k, n int
	bias    bool
}{
	{16, 192, 32, true}, {16, 32, 96, true}, {16, 32, 64, true}, {16, 64, 32, true}, {16, 32, 32, true},
	{16, 8, 16, false}, {16, 16, 8, false},
}

func BenchmarkGemmF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ m, k, n, ld int }{
		{16, 192, 32, 192}, {16, 32, 96, 32}, {16, 32, 64, 32}, {16, 64, 32, 64},
		{16, 8, 16, 96}, // attention's scores, q and k in place in qkv
	} {
		a, w := strided(rng, s.m, s.k, s.ld), strided(rng, s.n, s.k, s.ld)
		bias, c := strided(rng, 1, s.n, s.n), make([]float32, s.m*s.n)
		name := fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n)
		if s.ld != s.k {
			name += fmt.Sprintf("/ld%d", s.ld)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmF32(c, a, w, bias, s.m, s.k, s.n, s.n, s.ld, s.ld)
			}
			b.ReportMetric(float64(s.m*s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
		})
	}
}
