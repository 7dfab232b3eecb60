package kernels

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randFloats(r *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		switch r.Intn(16) {
		case 0:
			d[i] = float32(math.NaN())
		case 1:
			d[i] = float32(math.Inf(1))
		case 2:
			d[i] = float32(math.Copysign(0, -1))
		default:
			d[i] = r.Float32()*2e6 - 1e6
		}
	}
	return d
}

func leBytes(data []float32) []byte {
	b := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// The float32 view and its little-endian byte encoding must digest
// identically: that equivalence is what lets the gateway hash raw wire
// payloads without materializing a tensor.
func TestHashF32MatchesHashWordsLE(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 100, 1024, 12288} {
		data := randFloats(r, n)
		hf := HashF32(FNVOffset64, data)
		hb := HashWordsLE(FNVOffset64, leBytes(data))
		if hf != hb {
			t.Fatalf("n=%d: HashF32 %x != HashWordsLE %x", n, hf, hb)
		}
	}
}

// The assembly and portable implementations must agree bit-exactly for
// every length (block counts, tails, below-cutoff sizes) and seed: the
// digest keys caches, so the two paths must be the same function.
func TestHashAsmMatchesGo(t *testing.T) {
	if !asmSupported {
		t.Skip("no AVX2 on this host")
	}
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 15, 16, 63, 64, 65, 71, 72, 127, 128, 1000, 12288} {
		data := randFloats(r, n)
		bytes := leBytes(data)
		for _, seed := range []uint64{FNVOffset64, 0, 1, 0xdeadbeefcafef00d} {
			prev := SetAsmEnabled(true)
			af, ab := HashF32(seed, data), HashWordsLE(seed, bytes)
			SetAsmEnabled(false)
			gf, gb := HashF32(seed, data), HashWordsLE(seed, bytes)
			SetAsmEnabled(prev)
			if af != gf {
				t.Fatalf("n=%d seed=%x: asm HashF32 %x != go %x", n, seed, af, gf)
			}
			if ab != gb {
				t.Fatalf("n=%d seed=%x: asm HashWordsLE %x != go %x", n, seed, ab, gb)
			}
		}
	}
}

func TestHashProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := randFloats(r, 300)

	// Deterministic.
	if HashF32(FNVOffset64, data) != HashF32(FNVOffset64, data) {
		t.Fatal("hash not deterministic")
	}
	// Seed-sensitive.
	if HashF32(FNVOffset64, data) == HashF32(FNVOffset64+1, data) {
		t.Fatal("seed does not affect hash")
	}
	// Content-sensitive, including in the tail region past the last block.
	mut := append([]float32(nil), data...)
	mut[len(mut)-1] = mut[len(mut)-1] + 1
	if HashF32(FNVOffset64, data) == HashF32(FNVOffset64, mut) {
		t.Fatal("tail mutation not reflected in hash")
	}
	// Bit-pattern hashing: +0 and -0 are distinct content.
	z := []float32{0}
	nz := []float32{float32(math.Copysign(0, -1))}
	if HashF32(FNVOffset64, z) == HashF32(FNVOffset64, nz) {
		t.Fatal("+0 and -0 digest identically")
	}
	// Empty input folds the lane seeds only — stable and seed-dependent.
	if HashF32(1, nil) == HashF32(2, nil) {
		t.Fatal("empty-input hash ignores seed")
	}
}

func TestHashWordsLERejectsRaggedInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged payload did not panic")
		}
	}()
	HashWordsLE(FNVOffset64, make([]byte, 7))
}

func TestHashScalarReference(t *testing.T) {
	// The scalar baseline is plain FNV-1a; pin one well-known value so the
	// reference itself cannot drift: FNV-1a of the single word 0.
	off := uint64(FNVOffset64)
	want := off * FNVPrime64 // wraps mod 2^64
	if got := HashF32Scalar(FNVOffset64, []float32{0}); got != want {
		t.Fatalf("scalar FNV-1a reference drifted: %x", got)
	}
}

func benchFrame() []float32 {
	r := rand.New(rand.NewSource(42))
	return randFloats(r, 3*64*64)
}

// BenchmarkHashKernel compares the digest implementations on a 3×64×64
// frame: scalar FNV-1a baseline, the multi-lane portable kernel, and the
// AVX2 kernel.
func BenchmarkHashKernel(b *testing.B) {
	data := benchFrame()
	bytes := leBytes(data)
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(4 * len(data)))
		for i := 0; i < b.N; i++ {
			sinkHash = HashF32Scalar(FNVOffset64, data)
		}
	})
	b.Run("lanes_go", func(b *testing.B) {
		prev := SetAsmEnabled(false)
		defer SetAsmEnabled(prev)
		b.SetBytes(int64(4 * len(data)))
		for i := 0; i < b.N; i++ {
			sinkHash = HashF32(FNVOffset64, data)
		}
	})
	b.Run("lanes_asm", func(b *testing.B) {
		if !asmSupported {
			b.Skip("no AVX2 on this host")
		}
		prev := SetAsmEnabled(true)
		defer SetAsmEnabled(prev)
		b.SetBytes(int64(4 * len(data)))
		for i := 0; i < b.N; i++ {
			sinkHash = HashF32(FNVOffset64, data)
		}
	})
	b.Run("lanes_asm_bytes", func(b *testing.B) {
		if !asmSupported {
			b.Skip("no AVX2 on this host")
		}
		prev := SetAsmEnabled(true)
		defer SetAsmEnabled(prev)
		b.SetBytes(int64(len(bytes)))
		for i := 0; i < b.N; i++ {
			sinkHash = HashWordsLE(FNVOffset64, bytes)
		}
	})
}

var sinkHash uint64
