package quant

import (
	"fmt"

	"itask/internal/tensor"
)

// InjectBitFlips flips each stored weight bit independently with probability
// ratePerBit — the standard model for SRAM soft errors and marginal-voltage
// faults in accelerator weight buffers. Only the Bits bits a real weight
// SRAM would store are eligible (codes are kept sign-extended in int8, so a
// flipped stored sign bit re-sign-extends). Row sums are recomputed so the
// zero-point correction stays consistent with the corrupted codes, exactly
// as hardware computing them on the fly would behave, and the panels the
// GEMM reads are packed again from the corrupted codes.
//
// The model is modified in place; clone via Save/Load first to keep a
// pristine copy. Returns the number of bits flipped.
func InjectBitFlips(qm *Model, ratePerBit float64, seed uint64) (int, error) {
	if ratePerBit < 0 || ratePerBit > 1 {
		return 0, fmt.Errorf("quant: bit-flip rate %v outside [0,1]", ratePerBit)
	}
	rng := tensor.NewRNG(seed)
	flips := 0
	for _, l := range qm.linears() {
		bits := l.w.Bits
		mask := uint32(1)<<bits - 1
		signBit := uint32(1) << (bits - 1)
		for i, code := range l.w.Q {
			u := uint32(uint8(code)) & mask
			changed := false
			for b := 0; b < bits; b++ {
				if rng.Float64() < ratePerBit {
					u ^= 1 << b
					changed = true
					flips++
				}
			}
			if changed {
				// Sign-extend the Bits-wide pattern back into int8.
				if u&signBit != 0 {
					u |= ^mask
				}
				l.w.Q[i] = int8(u)
			}
		}
		rowSums(l.w.Q, l.w.Out, l.w.In, l.w.RowSums)
		l.w.pack()
	}
	return flips, nil
}

// WeightBits returns the total number of stored weight bits — the fault
// surface InjectBitFlips draws from.
func (qm *Model) WeightBits() int {
	n := 0
	for _, l := range qm.linears() {
		n += len(l.w.Q) * l.w.Bits
	}
	return n
}
