// Package hwsim models the iTask hardware acceleration circuit and its
// baselines at the level DAC evaluations report: per-layer cycle counts on a
// weight-stationary systolic array, SRAM/DRAM traffic, and an energy model
// built from public per-operation energy estimates (Horowitz, ISSCC 2014,
// 45nm, scaled). The GPU and CPU baselines are roofline-style analytical
// models of embedded-class parts at batch size 1 — the regime the paper's
// edge deployment targets, where kernel-launch overhead and low occupancy
// dominate GPU latency.
//
// Calibration policy (see DESIGN.md §4): the constants below are fixed
// technology numbers, not per-experiment tuning knobs. The headline ratios
// (accelerator vs GPU speedup and energy) emerge from the model.
package hwsim

// EnergyTable holds per-operation energies in picojoules and static powers
// in watts. Defaults follow Horowitz's ISSCC'14 survey numbers for ~45nm,
// with int8 MAC ≈ mult+add and fp32 MAC ≈ fp mult+add, plus conventional
// SRAM/DRAM per-byte access costs.
type EnergyTable struct {
	// MACInt8PJ is the energy of one 8-bit multiply-accumulate.
	MACInt8PJ float64
	// MACFP32PJ is the energy of one fp32 multiply-accumulate.
	MACFP32PJ float64
	// VectorOpPJ is the energy of one fp32 vector-unit op (LN, softmax...).
	VectorOpPJ float64
	// SRAMPerBytePJ is the on-chip SRAM access energy per byte.
	SRAMPerBytePJ float64
	// DRAMPerBytePJ is the off-chip DRAM access energy per byte.
	DRAMPerBytePJ float64
}

// DefaultEnergyTable returns the Horowitz-style constants.
func DefaultEnergyTable() EnergyTable {
	return EnergyTable{
		MACInt8PJ:     0.23, // 0.2 pJ mult + 0.03 pJ add
		MACFP32PJ:     4.6,  // 3.7 pJ mult + 0.9 pJ add
		VectorOpPJ:    1.2,
		SRAMPerBytePJ: 1.25, // 10 pJ / 64-bit word, 8KB array scale
		DRAMPerBytePJ: 20.0, // ~1.3 nJ / 64-bit DDR access
	}
}
