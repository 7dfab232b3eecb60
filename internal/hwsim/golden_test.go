package hwsim_test

import (
	"math"
	"testing"

	"itask/internal/experiments"
	"itask/internal/hwsim"
	"itask/internal/vit"
)

// TestAccelReportsGolden pins the accelerator model's headline figures bit
// for bit on the paper-scale teacher and student: per-image latency, total
// energy and mean array utilization, for the single image, micro-batches of
// 1, 2 and 8, and the output-stationary dataflow. All five calls share one
// aggregation over the workload, so a change to it shows up here as a
// changed bit, not as a drift inside some tolerance.
func TestAccelReportsGolden(t *testing.T) {
	accel := hwsim.DefaultAccel()
	calls := map[string]func(vit.Config) hwsim.ModelReport{
		"SimulateAccel":        func(m vit.Config) hwsim.ModelReport { return hwsim.SimulateAccel(accel, m) },
		"SimulateAccelBatch/1": func(m vit.Config) hwsim.ModelReport { return hwsim.SimulateAccelBatch(accel, m, 1) },
		"SimulateAccelBatch/2": func(m vit.Config) hwsim.ModelReport { return hwsim.SimulateAccelBatch(accel, m, 2) },
		"SimulateAccelBatch/8": func(m vit.Config) hwsim.ModelReport { return hwsim.SimulateAccelBatch(accel, m, 8) },
		"SimulateAccelDataflow/os": func(m vit.Config) hwsim.ModelReport {
			return hwsim.SimulateAccelDataflow(accel, m, hwsim.OutputStationary)
		},
	}
	models := map[string]vit.Config{
		"teacher": experiments.HWTeacherCfg(),
		"student": experiments.HWStudentCfg(),
	}
	golden := []struct {
		model, call               string
		latency, energy, meanUtil uint64
	}{
		{"teacher", "SimulateAccel", 0x40791b428f5c28f7, 0x4090ffb92ae2d7a7, 0x3fd843e68c4a69dd},
		{"teacher", "SimulateAccelBatch/1", 0x40791b428f5c28f7, 0x4090ffb92ae2d7a7, 0x3fd843e68c4a69dd},
		{"teacher", "SimulateAccelBatch/2", 0x4076a1a8f5c28f5e, 0x408e8eb428637675, 0x3fe10f76ca795f15},
		{"teacher", "SimulateAccelBatch/8", 0x4074c675c28f5c2a, 0x408bfa258659cbd0, 0x3fe8d755184ab6bc},
		{"teacher", "SimulateAccelDataflow/os", 0x40776449ba5e3540, 0x408f78f4daa57d7f, 0x3fe1c36632445f9d},
		{"student", "SimulateAccel", 0x40596cf5c28f5c29, 0x4070f1944226ebfe, 0x3fd0a28d33d7d65f},
		{"student", "SimulateAccelBatch/1", 0x40596cf5c28f5c29, 0x4070f1944226ebfe, 0x3fd0a28d33d7d65f},
		{"student", "SimulateAccelBatch/2", 0x4057987ae147ae14, 0x406f649c83f9f524, 0x3fd70a0e2ea2e26c},
		{"student", "SimulateAccelBatch/8", 0x4056391eb851eb85, 0x406d85b383bb0b03, 0x3fe09361b0807f3b},
		{"student", "SimulateAccelDataflow/os", 0x4058b0a3d70a3d71, 0x407063ee49da3ea6, 0x3fd4e53a6e3eb3d7},
	}
	for _, g := range golden {
		r := calls[g.call](models[g.model])
		got := [3]uint64{math.Float64bits(r.LatencyUS), math.Float64bits(r.TotalUJ), math.Float64bits(r.MeanUtilization)}
		if want := [3]uint64{g.latency, g.energy, g.meanUtil}; got != want {
			t.Errorf("%s %s: latency/energy/util bits %#x, want %#x (%v us, %v uJ, %v)",
				g.model, g.call, got, want, r.LatencyUS, r.TotalUJ, r.MeanUtilization)
		}
	}
}
