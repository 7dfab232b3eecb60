package experiments

import (
	"fmt"
	"io"

	"itask/internal/hwsim"
)

// E3Row is one row of Table 3: a device running one model configuration.
type E3Row struct {
	Device    string
	Model     string
	LatencyUS float64
	FPS       float64
	EnergyUJ  float64
}

// E3Result is the full hardware comparison (claims C3: 3.5× speedup,
// C4: 40% energy reduction vs GPU).
type E3Result struct {
	Rows                 []E3Row
	SpeedupVsGPU         float64
	SpeedupVsCPU         float64
	EnergyReductionVsGPU float64
}

// E3Hardware runs Table 3 on the paper-scale geometries: the quantized
// generalist (teacher geometry) on accelerator/GPU/CPU, plus the distilled
// student on the accelerator (the fastest deployable point).
func E3Hardware() E3Result {
	accel := hwsim.DefaultAccel()
	gpu := hwsim.DefaultGPU()
	cpu := hwsim.DefaultCPU()
	model := HWTeacherCfg()
	c := hwsim.Compare(accel, gpu, cpu, model)
	student := hwsim.SimulateAccel(accel, HWStudentCfg())
	res := E3Result{
		SpeedupVsGPU:         c.SpeedupVsGPU,
		SpeedupVsCPU:         c.SpeedupVsCPU,
		EnergyReductionVsGPU: c.EnergyReductionVsGPU,
	}
	add := func(model string, r hwsim.ModelReport) {
		res.Rows = append(res.Rows, E3Row{
			Device: r.Device, Model: model,
			LatencyUS: r.LatencyUS, FPS: r.FPS, EnergyUJ: r.TotalUJ,
		})
	}
	add("generalist", c.Accel)
	add("generalist", c.GPU)
	add("generalist", c.CPU)
	add("student", student)
	return res
}

// FprintE3 renders Table 3.
func FprintE3(w io.Writer, res E3Result) {
	fmt.Fprintf(w, "E3 (Table 3) — latency & energy, batch=1\n")
	fmt.Fprintf(w, "%-22s %-12s %12s %10s %12s\n", "device", "model", "latency(us)", "fps", "energy(uJ)")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-22s %-12s %12.1f %10.0f %12.1f\n", r.Device, r.Model, r.LatencyUS, r.FPS, r.EnergyUJ)
	}
	fmt.Fprintf(w, "speedup vs GPU: %.2fx (paper C3: 3.5x)   vs CPU: %.2fx   energy reduction vs GPU: %.0f%% (paper C4: 40%%)\n",
		res.SpeedupVsGPU, res.SpeedupVsCPU, 100*res.EnergyReductionVsGPU)
}

// E5Row is one point of Figure 2: the accelerator design-space sweep.
type E5Row struct {
	Array       string
	PeakGOPS    float64
	LatencyUS   float64
	EnergyUJ    float64
	Utilization float64
	// EDP is the energy-delay product (uJ·us), the design-point figure of
	// merit the sweep minimizes.
	EDP float64
}

// E5ArraySweep runs Figure 2: systolic array size vs latency/energy/EDP on
// the paper-scale generalist.
func E5ArraySweep() []E5Row {
	model := HWTeacherCfg()
	var rows []E5Row
	for _, n := range []int{8, 16, 32, 64, 128} {
		cfg := hwsim.DefaultAccel()
		cfg.Rows, cfg.Cols = n, n
		cfg.Name = fmt.Sprintf("%dx%d", n, n)
		r := hwsim.SimulateAccel(cfg, model)
		rows = append(rows, E5Row{
			Array:       cfg.Name,
			PeakGOPS:    cfg.PeakGOPS(),
			LatencyUS:   r.LatencyUS,
			EnergyUJ:    r.TotalUJ,
			Utilization: r.MeanUtilization,
			EDP:         r.TotalUJ * r.LatencyUS,
		})
	}
	return rows
}

// FprintE5 renders Figure 2's series.
func FprintE5(w io.Writer, rows []E5Row) {
	fmt.Fprintf(w, "E5 (Fig. 2) — systolic array design-space sweep (generalist)\n")
	fmt.Fprintf(w, "%-8s %10s %12s %12s %8s %14s\n", "array", "GOPS", "latency(us)", "energy(uJ)", "util", "EDP(uJ*us)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10.0f %12.1f %12.1f %7.1f%% %14.0f\n",
			r.Array, r.PeakGOPS, r.LatencyUS, r.EnergyUJ, 100*r.Utilization, r.EDP)
	}
}

// E6Row is one component of Figure 3's energy breakdown.
type E6Row struct {
	Device    string
	Component string
	EnergyUJ  float64
	SharePct  float64
}

// E6EnergyBreakdown runs Figure 3: where the energy goes on the accelerator
// vs the GPU baseline, paper-scale generalist, batch=1.
func E6EnergyBreakdown() []E6Row {
	model := HWTeacherCfg()
	accel := hwsim.SimulateAccel(hwsim.DefaultAccel(), model)
	var compute, sram, dram float64
	for _, l := range accel.Layers {
		compute += l.ComputeUJ
		sram += l.SRAMUJ
		dram += l.DRAMUJ
	}
	vector := accel.DynamicUJ - compute - sram - dram
	gpu := hwsim.SimulateGPU(hwsim.DefaultGPU(), model, 1)
	var rows []E6Row
	add := func(dev, comp string, uj, total float64) {
		rows = append(rows, E6Row{Device: dev, Component: comp, EnergyUJ: uj, SharePct: 100 * uj / total})
	}
	add(accel.Device, "mac-array", compute, accel.TotalUJ)
	add(accel.Device, "vector-unit", vector, accel.TotalUJ)
	add(accel.Device, "sram", sram, accel.TotalUJ)
	add(accel.Device, "dram", dram, accel.TotalUJ)
	add(accel.Device, "static+host", accel.StaticUJ, accel.TotalUJ)
	add(gpu.Device, "dynamic", gpu.DynamicUJ, gpu.TotalUJ)
	add(gpu.Device, "idle/static", gpu.StaticUJ, gpu.TotalUJ)
	return rows
}

// FprintE6 renders Figure 3's series.
func FprintE6(w io.Writer, rows []E6Row) {
	fmt.Fprintf(w, "E6 (Fig. 3) — per-inference energy breakdown\n")
	fmt.Fprintf(w, "%-22s %-14s %12s %8s\n", "device", "component", "energy(uJ)", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-14s %12.2f %7.1f%%\n", r.Device, r.Component, r.EnergyUJ, r.SharePct)
	}
}

// E3GPUBatchRow is the supplementary batch sweep showing why batch-1 edge
// inference favours the accelerator (GPU catches up with batching).
type E3GPUBatchRow struct {
	Batch         int
	PerImageUS    float64
	ThroughputFPS float64
}

// E3GPUBatchSweep sweeps GPU batch size on the generalist.
func E3GPUBatchSweep() []E3GPUBatchRow {
	model := HWTeacherCfg()
	gpu := hwsim.DefaultGPU()
	var rows []E3GPUBatchRow
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		r := hwsim.SimulateGPU(gpu, model, b)
		rows = append(rows, E3GPUBatchRow{Batch: b, PerImageUS: r.LatencyUS, ThroughputFPS: r.FPS})
	}
	return rows
}

// FprintE3Batch renders the batch sweep.
func FprintE3Batch(w io.Writer, rows []E3GPUBatchRow) {
	fmt.Fprintf(w, "E3 supplement — GPU batch sweep (generalist)\n")
	fmt.Fprintf(w, "%-8s %16s %16s\n", "batch", "per-image(us)", "throughput(fps)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %16.1f %16.0f\n", r.Batch, r.PerImageUS, r.ThroughputFPS)
	}
}
