package hwsim

import (
	"fmt"

	"itask/internal/vit"
)

// Dataflow selects the systolic array's mapping strategy.
type Dataflow int

// The two dataflows the iTask accelerator study compares.
const (
	// WeightStationary holds a (K,N) weight tile in the array and streams
	// activations; weights are read from DRAM once per layer. Best when
	// weights dominate traffic (the edge-inference case).
	WeightStationary Dataflow = iota
	// OutputStationary holds an (M,N) output tile in the PE accumulators
	// and streams both weights and activations through; partial sums never
	// leave the array, but weights are re-streamed once per M-tile.
	OutputStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	if d == OutputStationary {
		return "output-stationary"
	}
	return "weight-stationary"
}

// SimulateGEMMDataflow runs the cycle/traffic model for one GEMM under the
// chosen dataflow. WeightStationary delegates to SimulateGEMM (the default
// model); OutputStationary is modeled here:
//
// Tiling: the array holds an (Rows≤M, Cols≤N) output tile. For each of the
// ceil(M/Rows)×ceil(N/Cols) tiles, the full K reduction streams through
// (K + Rows + Cols pipeline cycles), then results drain (Cols cycles).
// Weights for the N-tile are re-read once per M-tile; activations for the
// M-tile once per N-tile; partial sums stay in the accumulators (no
// split-K SRAM bounce).
func SimulateGEMMDataflow(cfg AccelConfig, g vit.GEMM, df Dataflow) GEMMReport {
	if df == WeightStationary {
		return SimulateGEMM(cfg, g)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if g.M <= 0 || g.K <= 0 || g.N <= 0 || g.Repeat <= 0 {
		panic(fmt.Sprintf("hwsim: degenerate GEMM %+v", g))
	}
	tilesM := ceilDiv(g.M, cfg.Rows)
	tilesN := ceilDiv(g.N, cfg.Cols)

	perRepeatCycles := int64(tilesM*tilesN) * int64(g.K+cfg.Rows+2*cfg.Cols)
	cycles := perRepeatCycles * int64(g.Repeat)
	ideal := ceilDiv64(g.MACs(), int64(cfg.Rows*cfg.Cols))

	// Traffic per repeat: weights re-streamed per M-tile, activations
	// re-streamed per N-tile, outputs written once.
	weightReads := int64(g.K) * int64(g.N) * int64(tilesM)
	actReads := int64(g.M) * int64(g.K) * int64(tilesN)
	outWrites := int64(g.M) * int64(g.N)
	sramBytes := (weightReads + actReads + outWrites) * int64(g.Repeat)
	// Weights cross DRAM once per layer (cached in weight SRAM if they
	// fit; the re-streams above hit SRAM).
	dramBytes := int64(g.K) * int64(g.N) * int64(g.Repeat)

	computeTimeUS := float64(cycles) / (cfg.FreqMHz * 1e6) * 1e6
	dramTimeUS := float64(dramBytes) / (cfg.DRAMBandwidthGBs * 1e9) * 1e6
	timeUS := computeTimeUS
	if dramTimeUS > timeUS {
		timeUS = dramTimeUS
	}

	e := cfg.Energy
	return GEMMReport{
		Name:        g.Name,
		MACs:        g.MACs(),
		Cycles:      cycles,
		IdealCycles: ideal,
		TimeUS:      timeUS,
		Utilization: float64(ideal) / float64(cycles),
		SRAMBytes:   sramBytes,
		DRAMBytes:   dramBytes,
		ComputeUJ:   float64(g.MACs()) * e.MACInt8PJ * 1e-6,
		SRAMUJ:      float64(sramBytes) * e.SRAMPerBytePJ * 1e-6,
		DRAMUJ:      float64(dramBytes) * e.DRAMPerBytePJ * 1e-6,
	}
}

// SimulateAccelDataflow is SimulateAccel under a chosen dataflow.
func SimulateAccelDataflow(accel AccelConfig, model vit.Config, df Dataflow) ModelReport {
	if df == WeightStationary {
		return SimulateAccel(accel, model)
	}
	rep := simulateAccel(accel, model, 1, func(a AccelConfig, g vit.GEMM) GEMMReport {
		return SimulateGEMMDataflow(a, g, df)
	})
	rep.Device += "/" + df.String()
	return rep
}
