//go:build !amd64 || noasm

package kernels

// Non-amd64 hosts — and amd64 builds with the asm gated off via the noasm
// build tag (CI's cross-compile matrix) — always run the portable unrolled
// Go kernels.
const (
	asmSupported  = false
	vnniSupported = false
)

func dotI8Asm(a, b *int8, n int) int32                            { panic("kernels: no asm") }
func hashBlocksAsm(lanes *uint64, p *byte, nblocks int)           { panic("kernels: no asm") }
func rangeF32Asm(x *float32, rows, cols, ld int) (mn, mx float32) { panic("kernels: no asm") }
func quantizeI8Asm(dst *int8, src *float32, rows, cols, ld int, scale, fl, fh float32, zero int32) {
	panic("kernels: no asm")
}
func quantizeRowsI8Asm(dst *int8, scales *float32, sums *int32, src *float32, rows, cols, ld int, fl, fh float32) {
	panic("kernels: no asm")
}
func gemmI8Asm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int) {
	panic("kernels: no asm")
}
func gemmI8VNNIAsm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int) {
	panic("kernels: no asm")
}
func gemmF32Asm(c, a, w, bias *float32, m, k, n, ldc, lda, ldw int) {
	panic("kernels: no asm")
}
func addF32Asm(dst, src *float32, n int)                      { panic("kernels: no asm") }
func exp32Asm(dst, src *float32, n int)                       { panic("kernels: no asm") }
func geluF32Asm(dst, src *float32, n int)                     { panic("kernels: no asm") }
func softmaxF32Asm(x *float32, rows, cols int, scale float32) { panic("kernels: no asm") }
func layerNormF32Asm(dst, src, gamma, beta *float32, rows, d int, eps float32) {
	panic("kernels: no asm")
}
