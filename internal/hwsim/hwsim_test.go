package hwsim

import (
	"strings"
	"testing"
	"testing/quick"

	"itask/internal/scene"
	"itask/internal/vit"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultAccel().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultGPU().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultCPU().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultAccel()
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("rows=0 should fail")
	}
	badG := DefaultGPU()
	badG.MinUtilization = 2
	if err := badG.Validate(); err == nil {
		t.Error("util>1 should fail")
	}
}

func TestPeakGOPS(t *testing.T) {
	a := DefaultAccel()
	want := float64(32*32) * 800e6 * 1e-9
	if got := a.PeakGOPS(); got != want {
		t.Errorf("PeakGOPS = %v, want %v", got, want)
	}
}

func TestSimulateGEMMInvariants(t *testing.T) {
	accel := DefaultAccel()
	f := func(ms, ks, ns uint8) bool {
		g := vit.GEMM{
			Name: "g",
			M:    int(ms)%200 + 1, K: int(ks)%300 + 1, N: int(ns)%300 + 1,
			Repeat: 1,
		}
		r := SimulateGEMM(accel, g)
		// Cycles can never beat the 100%-utilization floor.
		if r.Cycles < r.IdealCycles {
			return false
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			return false
		}
		if r.TimeUS <= 0 || r.EnergyUJ() <= 0 {
			return false
		}
		// DRAM traffic at least the weight bytes.
		return r.DRAMBytes >= int64(g.K)*int64(g.N)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulateGEMMMonotoneInSize(t *testing.T) {
	accel := DefaultAccel()
	small := SimulateGEMM(accel, vit.GEMM{Name: "s", M: 64, K: 64, N: 64, Repeat: 1})
	big := SimulateGEMM(accel, vit.GEMM{Name: "b", M: 64, K: 128, N: 64, Repeat: 1})
	if big.Cycles <= small.Cycles || big.TimeUS <= small.TimeUS || big.EnergyUJ() <= small.EnergyUJ() {
		t.Error("bigger GEMM must cost more")
	}
	// Repeat scales linearly in cycles.
	rep2 := SimulateGEMM(accel, vit.GEMM{Name: "r", M: 64, K: 64, N: 64, Repeat: 2})
	if rep2.Cycles != 2*small.Cycles {
		t.Errorf("repeat=2 cycles %d, want %d", rep2.Cycles, 2*small.Cycles)
	}
}

func TestUtilizationImprovesWithAlignedShapes(t *testing.T) {
	accel := DefaultAccel() // 32x32
	aligned := SimulateGEMM(accel, vit.GEMM{Name: "a", M: 256, K: 64, N: 64, Repeat: 1})
	ragged := SimulateGEMM(accel, vit.GEMM{Name: "r", M: 256, K: 33, N: 33, Repeat: 1})
	if aligned.Utilization <= ragged.Utilization {
		t.Errorf("aligned util %v should beat ragged %v", aligned.Utilization, ragged.Utilization)
	}
}

func TestSimulateAccelModel(t *testing.T) {
	model := vit.TeacherConfig(int(scene.NumClasses))
	rep := SimulateAccel(DefaultAccel(), model)
	if len(rep.Layers) != len(model.Workload()) {
		t.Fatalf("layers %d vs workload %d", len(rep.Layers), len(model.Workload()))
	}
	if rep.LatencyUS <= 0 || rep.FPS <= 0 || rep.TotalUJ <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
	if rep.MeanUtilization <= 0 || rep.MeanUtilization > 1 {
		t.Errorf("utilization %v", rep.MeanUtilization)
	}
	if rep.TotalUJ != rep.DynamicUJ+rep.StaticUJ {
		t.Error("energy breakdown inconsistent")
	}
	// Latency at least the sum of layer times (vector work adds more).
	var sum float64
	for _, l := range rep.Layers {
		sum += l.TimeUS
	}
	if rep.LatencyUS < sum {
		t.Error("model latency below sum of layers")
	}
	if rep.LayerTable() == "" {
		t.Error("LayerTable empty")
	}
}

func TestStudentFasterThanTeacherOnAccel(t *testing.T) {
	accel := DefaultAccel()
	teacher := SimulateAccel(accel, vit.TeacherConfig(14))
	student := SimulateAccel(accel, vit.StudentConfig(14))
	if student.LatencyUS >= teacher.LatencyUS {
		t.Error("student must be faster than teacher")
	}
	if student.TotalUJ >= teacher.TotalUJ {
		t.Error("student must use less energy than teacher")
	}
}

func TestBiggerArrayFasterButLessUtilized(t *testing.T) {
	model := vit.TeacherConfig(14)
	small := DefaultAccel()
	small.Rows, small.Cols = 8, 8
	big := DefaultAccel()
	big.Rows, big.Cols = 64, 64
	rs := SimulateAccel(small, model)
	rb := SimulateAccel(big, model)
	if rb.LatencyUS >= rs.LatencyUS {
		t.Error("64x64 should beat 8x8 latency")
	}
	if rb.MeanUtilization >= rs.MeanUtilization {
		t.Error("bigger array should have lower utilization on a small model")
	}
}

func TestSimulateGPUBatchingImprovesThroughput(t *testing.T) {
	model := vit.TeacherConfig(14)
	gpu := DefaultGPU()
	b1 := SimulateGPU(gpu, model, 1)
	b8 := SimulateGPU(gpu, model, 8)
	if b8.LatencyUS >= b1.LatencyUS {
		t.Errorf("per-image latency at batch 8 (%v) should beat batch 1 (%v) via launch amortization",
			b8.LatencyUS, b1.LatencyUS)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("batch 0 should panic")
			}
		}()
		SimulateGPU(gpu, model, 0)
	}()
}

func TestGPULaunchOverheadDominatesAtBatch1(t *testing.T) {
	model := vit.TeacherConfig(14)
	gpu := DefaultGPU()
	rep := SimulateGPU(gpu, model, 1)
	kernels := float64(len(model.Workload())) + float64(4*model.Depth+2)
	launch := kernels * gpu.LaunchOverheadUS
	if launch < rep.LatencyUS*0.3 {
		t.Errorf("launch overhead %vus should be a large share of %vus at batch 1", launch, rep.LatencyUS)
	}
}

// TestHeadlineComparison checks the E3 claim shape: the accelerator beats
// the GPU by roughly the paper's 3.5x on latency and wins on energy, and
// the CPU loses to both.
func TestHeadlineComparison(t *testing.T) {
	model := vit.TeacherConfig(int(scene.NumClasses))
	c := Compare(DefaultAccel(), DefaultGPU(), DefaultCPU(), model)
	if c.SpeedupVsGPU < 2 || c.SpeedupVsGPU > 6 {
		t.Errorf("speedup vs GPU = %.2fx, want in the 3.5x ballpark (2-6x)", c.SpeedupVsGPU)
	}
	if c.EnergyReductionVsGPU < 0.3 {
		t.Errorf("energy reduction vs GPU = %.0f%%, want >= 30%%", 100*c.EnergyReductionVsGPU)
	}
	if c.SpeedupVsCPU <= c.SpeedupVsGPU {
		t.Error("CPU should be the slowest device")
	}
	if !strings.Contains(c.String(), "speedup") {
		t.Error("comparison table missing summary line")
	}
}

func TestVectorOpsScaleWithDepth(t *testing.T) {
	shallow := vit.StudentConfig(14)
	deep := shallow
	deep.Depth = shallow.Depth * 2
	if vectorOpCount(deep) <= vectorOpCount(shallow) {
		t.Error("vector ops should grow with depth")
	}
}

func TestCPUSlowerWhenWeaker(t *testing.T) {
	model := vit.StudentConfig(14)
	fast := DefaultCPU()
	slow := fast
	slow.SustainedGFLOPs = fast.SustainedGFLOPs / 4
	if SimulateCPU(slow, model).LatencyUS <= SimulateCPU(fast, model).LatencyUS {
		t.Error("weaker CPU must be slower")
	}
}

func TestEnergyTableSanity(t *testing.T) {
	e := DefaultEnergyTable()
	if e.MACInt8PJ >= e.MACFP32PJ {
		t.Error("int8 MAC must be cheaper than fp32")
	}
	if e.SRAMPerBytePJ >= e.DRAMPerBytePJ {
		t.Error("SRAM must be cheaper than DRAM")
	}
}
