package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// body is one set of kernel bodies a host may run: every kernel's Go
// reference ("go"), the AVX2 assembly ("asm"), or the AVX2 assembly with
// GemmI8 on its VNNI body ("vnni").
type body struct {
	name      string
	asm, vnni bool
	have      bool // the host can run it
}

var bodies = []body{
	{"go", false, false, true},
	{"asm", true, false, asmSupported},
	{"vnni", true, true, vnniSupported},
}

// use switches the kernels to b and returns the switch back.
func (b body) use() (restore func()) {
	prevAsm, prevVNNI := useAsm, useVNNI
	useAsm, useVNNI = b.asm, b.vnni
	return func() { useAsm, useVNNI = prevAsm, prevVNNI }
}

// withAsm runs f once per body as a subtest named after it, so every test
// covers each implementation the host has; a body it lacks is a skipped
// subtest.
func withAsm(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) {
			if !b.have {
				t.Skipf("this host cannot run the %s body", b.name)
			}
			defer b.use()()
			f(t)
		})
	}
}

// TestGemmI8Body: GemmI8Body names the body each switch setting runs, and
// SetAsmEnabled(false) turns the VNNI body off with the rest of the
// assembly. Under -v it logs the body the host serves on.
func TestGemmI8Body(t *testing.T) {
	t.Logf("this host serves GemmI8 on its %q body", GemmI8Body())
	want := map[string]string{"go": "go", "asm": "avx2", "vnni": "vnni"}
	withAsm(t, func(t *testing.T) {
		if got := GemmI8Body(); got != want[t.Name()[len("TestGemmI8Body/"):]] {
			t.Fatalf("GemmI8Body() = %q", got)
		}
		defer SetAsmEnabled(SetAsmEnabled(false))
		if got := GemmI8Body(); got != "go" {
			t.Fatalf("with the assembly off, GemmI8Body() = %q", got)
		}
	})
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// strided is a (rows, cols) block at row stride ld filled from rng, with
// NaN in the slack between rows: a kernel that reads past a row's end
// turns its outputs into NaN.
func strided(rng *rand.Rand, rows, cols, ld int) []float32 {
	x := make([]float32, max(0, (rows-1)*ld+cols))
	for i := range x {
		if i%ld < cols {
			x[i] = float32(rng.NormFloat64())
		} else {
			x[i] = float32(math.NaN())
		}
	}
	return x
}

// nanFilled is a destination of n values, plus one past the end, all NaN.
func nanFilled(n int) []float32 {
	x := make([]float32, n+1)
	for i := range x {
		x[i] = float32(math.NaN())
	}
	return x
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out
}

func closeEnough(a, b float32, n int) bool {
	diff := math.Abs(float64(a - b))
	tol := 1e-4 * (1 + math.Abs(float64(b))) * math.Sqrt(float64(n+1))
	return diff <= tol
}

// refDot is a deliberately simple float64 reference.
func refDot(x, y []float32) float32 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return float32(s)
}

func TestDotAllLengths(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := 0; n <= 130; n++ {
			x := randF32(rng, n)
			y := randF32(rng, n)
			got := Dot(x, y)
			want := refDot(x, y)
			if !closeEnough(got, want, n) {
				t.Fatalf("Dot n=%d: got %v want %v", n, got, want)
			}
		}
	})
}

func TestDotUnaligned(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		base := randF32(rng, 200)
		for off := 0; off < 9; off++ {
			x := base[off : off+64]
			y := base[off+70 : off+134]
			if !closeEnough(Dot(x, y), refDot(x, y), 64) {
				t.Fatalf("Dot unaligned offset %d mismatch", off)
			}
		}
	})
}

func TestDot4AllLengths(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for n := 0; n <= 100; n++ {
			x := randF32(rng, n)
			bs := [4][]float32{randF32(rng, n), randF32(rng, n), randF32(rng, n), randF32(rng, n)}
			s0, s1, s2, s3 := Dot4(x, bs[0], bs[1], bs[2], bs[3])
			for i, got := range []float32{s0, s1, s2, s3} {
				if want := refDot(x, bs[i]); !closeEnough(got, want, n) {
					t.Fatalf("Dot4 n=%d lane %d: got %v want %v", n, i, got, want)
				}
			}
		}
	})
}

func TestAxpyAllLengths(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for n := 0; n <= 130; n++ {
			a := float32(rng.NormFloat64())
			x := randF32(rng, n)
			y := randF32(rng, n)
			want := make([]float32, n)
			for i := range want {
				want[i] = y[i] + a*x[i]
			}
			Axpy(a, x, y)
			for i := range y {
				if !closeEnough(y[i], want[i], 1) {
					t.Fatalf("Axpy n=%d idx %d: got %v want %v", n, i, y[i], want[i])
				}
			}
		}
	})
}

func TestAxpy4AllLengths(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= 100; n++ {
			var a [4]float32
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			xs := [4][]float32{randF32(rng, n), randF32(rng, n), randF32(rng, n), randF32(rng, n)}
			y := randF32(rng, n)
			want := make([]float32, n)
			for i := range want {
				want[i] = y[i] + a[0]*xs[0][i] + a[1]*xs[1][i] + a[2]*xs[2][i] + a[3]*xs[3][i]
			}
			Axpy4(&a, xs[0], xs[1], xs[2], xs[3], y)
			for i := range y {
				if !closeEnough(y[i], want[i], 4) {
					t.Fatalf("Axpy4 n=%d idx %d: got %v want %v", n, i, y[i], want[i])
				}
			}
		}
	})
}

func TestDotI8AllLengths(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for n := 0; n <= 200; n++ {
			a := randI8(rng, n)
			b := randI8(rng, n)
			var want int32
			for i := range a {
				want += int32(a[i]) * int32(b[i])
			}
			if got := DotI8(a, b); got != want {
				t.Fatalf("DotI8 n=%d: got %d want %d (int8 dot must be exact)", n, got, want)
			}
		}
	})
}

func TestDotI8Extremes(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		// All -128*-128 products: the widening path must not saturate.
		n := 96
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i], b[i] = -128, -128
		}
		want := int32(n) * 16384
		if got := DotI8(a, b); got != want {
			t.Fatalf("DotI8 extremes: got %d want %d", got, want)
		}
	})
}

func TestAsmMatchesGoExactlyI8(t *testing.T) {
	if !asmSupported {
		t.Skip("no AVX2+FMA on this host")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500)
		a := randI8(rng, n)
		b := randI8(rng, n)
		if g, w := dotI8Go(a, b), DotI8(a, b); g != w {
			t.Fatalf("asm/go int8 dot differ at n=%d: %d vs %d", n, g, w)
		}
	}
}

func BenchmarkDotI8_256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randI8(rng, 256)
	y := randI8(rng, 256)
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += DotI8(x, y)
	}
	_ = sink
}

func BenchmarkDot_256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randF32(rng, 256)
	y := randF32(rng, 256)
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

func BenchmarkAxpy4_256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := [4]float32{0.1, 0.2, 0.3, 0.4}
	x0, x1, x2, x3 := randF32(rng, 256), randF32(rng, 256), randF32(rng, 256), randF32(rng, 256)
	y := randF32(rng, 256)
	for i := 0; i < b.N; i++ {
		Axpy4(&a, x0, x1, x2, x3, y)
	}
}
