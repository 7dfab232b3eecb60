package hwsim

import (
	"fmt"
	"sort"
	"strings"

	"itask/internal/vit"
)

// ModelReport is the simulated execution of one full inference pass.
type ModelReport struct {
	Device string
	// Layers holds the per-GEMM breakdown (accelerator runs only).
	Layers []GEMMReport
	// VectorOps counts non-GEMM elementwise work (LN, softmax, GELU,
	// residual adds) executed on the vector unit.
	VectorOps int64
	// LatencyUS is end-to-end single-image latency.
	LatencyUS float64
	// FPS is 1e6 / LatencyUS.
	FPS float64
	// DynamicUJ, StaticUJ, TotalUJ are per-inference energies.
	DynamicUJ, StaticUJ, TotalUJ float64
	// MeanUtilization is MAC-weighted array utilization (accelerator only).
	MeanUtilization float64
}

// vectorOpCount estimates the elementwise fp32 work of one inference:
// per block, 2 LayerNorms (~8 ops/elem), softmax (~6 ops/elem over T² per
// head), GELU (~10 ops/elem over the MLP hidden), residual adds, plus the
// final norm and the head sigmoids. Constants are rough but consistent
// across devices, so cross-device ratios are insensitive to them.
func vectorOpCount(cfg vit.Config) int64 {
	t := int64(cfg.Tokens())
	d := int64(cfg.Dim)
	var ops int64
	perLN := 8 * t * d
	for i := 0; i < cfg.Depth; i++ {
		ops += 2 * perLN
		ops += 6 * int64(cfg.Heads) * t * t // softmax
		ops += 10 * t * d * int64(cfg.MLPRatio)
		ops += 2 * t * d // residual adds
	}
	ops += perLN                          // final norm
	ops += 12 * t * int64(cfg.DetWidth()) // head activations/decode
	return ops
}

// SimulateAccel maps a ViT workload onto the accelerator and returns the
// full report: SimulateAccelBatch at batch 1.
func SimulateAccel(accel AccelConfig, model vit.Config) ModelReport {
	return SimulateAccelBatch(accel, model, 1)
}

// SimulateAccelBatch models the accelerator executing a micro-batch of
// `batch` images back to back. Batching is this device model's property:
// the CPU serving shard executes one request at a time, because on a CPU a
// frame's 16 token rows already reuse each weight. Static-weight GEMMs (patch embed, QKV/proj, MLPs, heads)
// keep their weight tiles stationary across the whole batch — M grows by
// the batch factor while the per-tile weight loads, pipeline fill/drain,
// and DRAM weight streaming are paid once — which is exactly the
// weight-stationary amortization that makes micro-batching profitable on
// this design. GEMMs marked Dynamic (attention scores/context, whose
// stationary operand is a per-image activation) repeat per image and gain
// nothing. The report is normalized per image: LatencyUS = total/batch,
// FPS = batch/total.
func SimulateAccelBatch(accel AccelConfig, model vit.Config, batch int) ModelReport {
	return simulateAccel(accel, model, batch, SimulateGEMM)
}

// simulateAccel is the model-level aggregation behind every accelerator
// report: each GEMM of the workload, grown to the batch, runs under the
// per-GEMM model gemm; vector-unit work runs serialized after the array
// (the conservative choice); static energy is charged over the total time;
// and the figures are normalized per image.
func simulateAccel(accel AccelConfig, model vit.Config, batch int, gemm func(AccelConfig, vit.GEMM) GEMMReport) ModelReport {
	if batch <= 0 {
		panic("hwsim: batch must be positive")
	}
	if err := accel.Validate(); err != nil {
		panic(err)
	}
	rep := ModelReport{Device: accel.Name}
	var macWeightedUtil, totalMACs float64
	for _, g := range model.Workload() {
		if g.Dynamic {
			g.Repeat *= batch
		} else {
			g.M *= batch
		}
		lr := gemm(accel, g)
		rep.Layers = append(rep.Layers, lr)
		rep.LatencyUS += lr.TimeUS
		rep.DynamicUJ += lr.EnergyUJ()
		macWeightedUtil += lr.Utilization * float64(lr.MACs)
		totalMACs += float64(lr.MACs)
	}
	rep.VectorOps = vectorOpCount(model) * int64(batch)
	vecTimeUS := float64(rep.VectorOps) / (float64(accel.VectorLanes) * accel.FreqMHz * 1e6) * 1e6
	rep.LatencyUS += vecTimeUS
	rep.DynamicUJ += float64(rep.VectorOps) * accel.Energy.VectorOpPJ * 1e-6
	rep.StaticUJ = (accel.StaticPowerW + accel.HostPowerW) * rep.LatencyUS // W·µs = µJ
	rep.LatencyUS /= float64(batch)
	rep.DynamicUJ /= float64(batch)
	rep.StaticUJ /= float64(batch)
	rep.TotalUJ = rep.DynamicUJ + rep.StaticUJ
	rep.FPS = 1e6 / rep.LatencyUS
	if totalMACs > 0 {
		rep.MeanUtilization = macWeightedUtil / totalMACs
	}
	return rep
}

// SimulateGPU models the fp32 GPU baseline at the given batch size: each
// GEMM is one kernel with launch overhead, an occupancy-scaled compute
// roofline, and a bandwidth roofline; elementwise work is fused into a few
// extra kernels. Batching multiplies M (more parallelism, better occupancy)
// and amortizes launches.
func SimulateGPU(gpu GPUConfig, model vit.Config, batch int) ModelReport {
	if err := gpu.Validate(); err != nil {
		panic(err)
	}
	if batch <= 0 {
		panic("hwsim: batch must be positive")
	}
	rep := ModelReport{Device: gpu.Name}
	var timeUS, dynamicUJ float64
	for _, g := range model.Workload() {
		m := g.M * batch
		outputs := float64(m * g.N)
		util := outputs / gpu.SaturationOutputs
		if util > 1 {
			util = 1
		}
		if util < gpu.MinUtilization {
			util = gpu.MinUtilization
		}
		flops := 2 * float64(g.MACs()) * float64(batch)
		computeUS := flops / (gpu.PeakGFLOPs * 1e9 * util) * 1e6
		bytes := 4 * float64(int64(m)*int64(g.K)+int64(g.K)*int64(g.N)+int64(m)*int64(g.N)) * float64(g.Repeat)
		memUS := bytes / (gpu.MemBWGBs * 1e9) * 1e6
		t := computeUS
		if memUS > t {
			t = memUS
		}
		timeUS += gpu.LaunchOverheadUS + t
		dynamicUJ += float64(g.MACs()) * float64(batch) * gpu.Energy.MACFP32PJ * 1e-6
		dynamicUJ += bytes * gpu.Energy.DRAMPerBytePJ * 1e-6
	}
	// Elementwise work: ~4 fused kernels per block plus head decode.
	vecOps := vectorOpCount(model) * int64(batch)
	fusedKernels := float64(4*model.Depth + 2)
	vecUS := float64(vecOps) / (gpu.PeakGFLOPs * 1e9 * 0.05) * 1e6 // elementwise kernels are bandwidth-poor
	timeUS += fusedKernels*gpu.LaunchOverheadUS + vecUS
	dynamicUJ += float64(vecOps) * gpu.Energy.MACFP32PJ * 1e-6

	rep.VectorOps = vecOps
	rep.LatencyUS = timeUS / float64(batch) // per-image latency at this batch
	rep.DynamicUJ = dynamicUJ / float64(batch)
	rep.StaticUJ = gpu.IdlePowerW * timeUS / float64(batch)
	rep.TotalUJ = rep.DynamicUJ + rep.StaticUJ
	rep.FPS = 1e6 / rep.LatencyUS
	return rep
}

// SimulateCPU models the embedded CPU baseline: sustained-GFLOPs GEMMs with
// no launch overhead, fp32 energy.
func SimulateCPU(cpu CPUConfig, model vit.Config) ModelReport {
	if err := cpu.Validate(); err != nil {
		panic(err)
	}
	e := DefaultEnergyTable()
	rep := ModelReport{Device: cpu.Name}
	var macs float64
	for _, g := range model.Workload() {
		macs += float64(g.MACs())
	}
	vecOps := float64(vectorOpCount(model))
	rep.VectorOps = int64(vecOps)
	flops := 2*macs + vecOps
	rep.LatencyUS = flops / (cpu.SustainedGFLOPs * 1e9) * 1e6
	rep.DynamicUJ = macs * e.MACFP32PJ * 1e-6
	rep.StaticUJ = cpu.PowerW * rep.LatencyUS
	rep.TotalUJ = rep.DynamicUJ + rep.StaticUJ
	rep.FPS = 1e6 / rep.LatencyUS
	return rep
}

// Comparison holds the accelerator-vs-baseline headline numbers of E3.
type Comparison struct {
	Accel, GPU, CPU ModelReport
	// SpeedupVsGPU and SpeedupVsCPU are latency ratios (>1 = accel wins).
	SpeedupVsGPU, SpeedupVsCPU float64
	// EnergyReductionVsGPU is 1 − accelEnergy/gpuEnergy (the paper's "40%
	// reduction" metric).
	EnergyReductionVsGPU float64
}

// Compare runs all three devices on the model at batch 1.
func Compare(accel AccelConfig, gpu GPUConfig, cpu CPUConfig, model vit.Config) Comparison {
	c := Comparison{
		Accel: SimulateAccel(accel, model),
		GPU:   SimulateGPU(gpu, model, 1),
		CPU:   SimulateCPU(cpu, model),
	}
	c.SpeedupVsGPU = c.GPU.LatencyUS / c.Accel.LatencyUS
	c.SpeedupVsCPU = c.CPU.LatencyUS / c.Accel.LatencyUS
	c.EnergyReductionVsGPU = 1 - c.Accel.TotalUJ/c.GPU.TotalUJ
	return c
}

// String renders a comparison table.
func (c Comparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %10s %12s\n", "device", "latency(us)", "fps", "energy(uJ)")
	for _, r := range []ModelReport{c.Accel, c.GPU, c.CPU} {
		fmt.Fprintf(&b, "%-22s %12.1f %10.0f %12.1f\n", r.Device, r.LatencyUS, r.FPS, r.TotalUJ)
	}
	fmt.Fprintf(&b, "speedup vs GPU: %.2fx   vs CPU: %.2fx   energy reduction vs GPU: %.0f%%\n",
		c.SpeedupVsGPU, c.SpeedupVsCPU, 100*c.EnergyReductionVsGPU)
	return b.String()
}

// LayerTable renders the per-layer accelerator breakdown sorted by time.
func (r ModelReport) LayerTable() string {
	layers := append([]GEMMReport(nil), r.Layers...)
	sort.Slice(layers, func(i, j int) bool { return layers[i].TimeUS > layers[j].TimeUS })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %8s %7s %10s %10s\n", "layer", "MACs", "time(us)", "util", "sram(KB)", "energy(uJ)")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-20s %10d %8.2f %6.1f%% %10.1f %10.2f\n",
			l.Name, l.MACs, l.TimeUS, 100*l.Utilization, float64(l.SRAMBytes)/1024, l.EnergyUJ())
	}
	return b.String()
}
