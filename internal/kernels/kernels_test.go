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
