package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// tinyScale keeps the experiment-harness tests fast; cmd/itask-bench runs
// QuickScale or FullScale.
func tinyScale() Scale {
	return Scale{
		Name:          "tiny",
		TrainPerTask:  40,
		DistillSample: 64,
		ValPerTask:    24,
		TeacherEpochs: 14,
		DistillEpochs: 14,
		FewShotKs:     []int{0, 2},
		FewShotEpochs: 6,
		E9Samples:     []int{8, 32},
	}
}

var (
	tinyEnvOnce sync.Once
	tinyEnv     *Env
	tinyEnvErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping trained-environment tests in -short mode")
	}
	tinyEnvOnce.Do(func() {
		tinyEnv, tinyEnvErr = BuildEnv(tinyScale())
	})
	if tinyEnvErr != nil {
		t.Fatal(tinyEnvErr)
	}
	return tinyEnv
}

func TestBuildEnvArtifacts(t *testing.T) {
	env := testEnv(t)
	if env.Teacher == nil || env.Quant == nil {
		t.Fatal("missing generalist artifacts")
	}
	if len(env.Students) != len(env.Tasks) {
		t.Fatalf("students %d for %d tasks", len(env.Students), len(env.Tasks))
	}
	for _, task := range env.Tasks {
		if env.Graphs[task.Name] == nil || env.Priors[task.Name] == nil {
			t.Errorf("task %s missing KG artifacts", task.Name)
		}
		if env.Val[task.Name].Len() != env.Scale.ValPerTask {
			t.Errorf("task %s val size %d", task.Name, env.Val[task.Name].Len())
		}
	}
}

func TestE1Shape(t *testing.T) {
	env := testEnv(t)
	rows := E1ConfigAccuracy(env)
	if len(rows) != len(env.Tasks) {
		t.Fatalf("E1 rows %d", len(rows))
	}
	var sb strings.Builder
	FprintE1(&sb, rows)
	if !strings.Contains(sb.String(), "task-specific") {
		t.Error("E1 table malformed")
	}
	for _, r := range rows {
		for _, v := range []float64{r.TeacherAcc, r.StudentAcc, r.QuantAcc} {
			if v < 0 || v > 1 {
				t.Errorf("E1 %s accuracy out of range: %+v", r.Task, r)
			}
		}
	}
	// Claim C1 direction at tiny scale: on average the task-specific
	// students should not lose to the quantized generalist.
	var gap float64
	for _, r := range rows {
		gap += r.GapPct
	}
	if gap/float64(len(rows)) < -5 {
		t.Errorf("mean task-specific gap %.1f%%: direction of claim C1 violated", gap/float64(len(rows)))
	}
}

func TestE2Shape(t *testing.T) {
	env := testEnv(t)
	rows := E2MultiTask(env)
	if len(rows) != len(env.Tasks)+1 {
		t.Fatalf("E2 rows %d", len(rows))
	}
	gen := rows[len(rows)-1]
	if gen.Config != "quantized-generalist" {
		t.Fatal("last row should be the generalist")
	}
	// Claim C2 direction: the generalist's worst-task accuracy beats the
	// average student's worst-task accuracy (students collapse off-task).
	var studentWorst float64
	for _, r := range rows[:len(rows)-1] {
		studentWorst += r.WorstAcc
	}
	studentWorst /= float64(len(rows) - 1)
	if gen.WorstAcc < studentWorst {
		t.Errorf("generalist worst %.3f should beat mean student worst %.3f", gen.WorstAcc, studentWorst)
	}
	var sb strings.Builder
	FprintE2(&sb, env, rows)
	if !strings.Contains(sb.String(), "worst") {
		t.Error("E2 table malformed")
	}
}

func TestE3AndHardwareFigures(t *testing.T) {
	res := E3Hardware()
	if len(res.Rows) != 4 {
		t.Fatalf("E3 rows %d", len(res.Rows))
	}
	if res.SpeedupVsGPU < 2 || res.SpeedupVsGPU > 6 {
		t.Errorf("speedup %.2f outside 3.5x ballpark", res.SpeedupVsGPU)
	}
	if res.EnergyReductionVsGPU <= 0.3 {
		t.Errorf("energy reduction %.2f too small", res.EnergyReductionVsGPU)
	}
	FprintE3(os.Stderr, res)

	sweep := E5ArraySweep()
	if len(sweep) != 5 {
		t.Fatalf("E5 rows %d", len(sweep))
	}
	// Latency falls from 8x8 through 32x32; past the model's parallelism it
	// may plateau or regress (tile padding) — that knee is the figure's
	// point. Utilization falls monotonically with array size.
	for i := 1; i < 3; i++ {
		if sweep[i].LatencyUS >= sweep[i-1].LatencyUS {
			t.Errorf("latency should fall up to 32x32: %+v", sweep)
		}
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Utilization >= sweep[i-1].Utilization {
			t.Errorf("utilization should fall with array size: %+v", sweep)
		}
	}

	breakdown := E6EnergyBreakdown()
	shares := map[string]float64{}
	for _, r := range breakdown {
		shares[r.Device] += r.SharePct
		if r.EnergyUJ < 0 {
			t.Errorf("negative energy component %+v", r)
		}
	}
	for dev, total := range shares {
		if total < 99 || total > 101 {
			t.Errorf("%s energy shares sum to %.1f%%, want 100%%", dev, total)
		}
	}

	batches := E3GPUBatchSweep()
	if batches[len(batches)-1].PerImageUS >= batches[0].PerImageUS {
		t.Error("GPU per-image latency should improve with batch")
	}
}

func TestE4Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E4FewShot(env, "harvest")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(env.Scale.FewShotKs) {
		t.Fatalf("E4 rows %d", len(rows))
	}
	// More shots must not make KG-guided adaptation dramatically worse;
	// and the KG curve should dominate on average.
	var kgSum, noSum float64
	for _, r := range rows {
		kgSum += r.AccKG
		noSum += r.AccNoKG
	}
	if kgSum < noSum {
		t.Errorf("KG curve (%.3f total) should dominate no-KG (%.3f)", kgSum, noSum)
	}
	var sb strings.Builder
	FprintE4(&sb, "harvest", rows)
	if !strings.Contains(sb.String(), "with KG") {
		t.Error("E4 table malformed")
	}
	if _, err := E4FewShot(env, "nope"); err == nil {
		t.Error("unknown held-out task should error")
	}
}

func TestE7Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E7BitWidth(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("E7 rows %d", len(rows))
	}
	// Within a scheme, accuracy must not improve as bits shrink (weak
	// monotonicity with a small tolerance for eval noise).
	const tol = 0.08
	for s := 0; s < 2; s++ {
		grp := rows[s*3 : s*3+3] // bits 8,6,4
		if grp[2].MeanAcc > grp[0].MeanAcc+tol {
			t.Errorf("4-bit (%.3f) should not beat 8-bit (%.3f)", grp[2].MeanAcc, grp[0].MeanAcc)
		}
		if grp[2].WeightKB >= grp[0].WeightKB {
			t.Error("4-bit weights should be smaller than 8-bit")
		}
	}
	var sb strings.Builder
	FprintE7(&sb, rows)
	if !strings.Contains(sb.String(), "per-channel") {
		t.Error("E7 table malformed")
	}
}

func TestE8Shapes(t *testing.T) {
	env := testEnv(t)
	kgRows, err := E8KGAblation(env, "patrol")
	if err != nil {
		t.Fatal(err)
	}
	if len(kgRows) != 5 || kgRows[0].Removed != "none" {
		t.Fatalf("E8a rows %+v", kgRows)
	}
	// The full graph must separate task classes from the rest, and at least
	// one attribute family must be load-bearing (its removal reduces
	// separation). Individual removals can go either way — Match averages
	// over constrained families, so dropping a weakly-informative family
	// can sharpen the remaining evidence.
	if kgRows[0].Separation <= 0 {
		t.Errorf("full graph separation %.3f should be positive", kgRows[0].Separation)
	}
	loadBearing := false
	for _, r := range kgRows[1:] {
		if r.Separation < kgRows[0].Separation-1e-9 {
			loadBearing = true
		}
		if r.Separation < -1 || r.Separation > 1 {
			t.Errorf("separation out of range: %+v", r)
		}
	}
	if !loadBearing {
		t.Error("no attribute family is load-bearing for the patrol task")
	}
	dRows, err := E8DistillAblation(env, "inspect")
	if err != nil {
		t.Fatal(err)
	}
	if len(dRows) != 4 {
		t.Fatalf("E8b rows %d", len(dRows))
	}
	var sb strings.Builder
	FprintE8KG(&sb, "patrol", kgRows)
	FprintE8Distill(&sb, "inspect", dRows)
	if !strings.Contains(sb.String(), "zero-shot") {
		t.Error("E8 tables malformed")
	}
	if _, err := E8KGAblation(env, "nope"); err == nil {
		t.Error("unknown task should error")
	}
	if _, err := E8DistillAblation(env, "nope"); err == nil {
		t.Error("unknown task should error")
	}
}

func TestE9Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E9SampleEfficiency(env, "triage", env.Scale.E9Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(env.Scale.E9Samples) {
		t.Fatalf("E9 rows %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.ITaskAcc, r.CNNAcc, r.ViTScratchAcc} {
			if v < 0 || v > 1 {
				t.Errorf("E9 accuracy out of range: %+v", r)
			}
		}
	}
	// Claim direction: at the smallest budget, the iTask pipeline should
	// not lose to the conventional from-scratch baselines.
	first := rows[0]
	if first.ITaskAcc+0.05 < first.CNNAcc || first.ITaskAcc+0.05 < first.ViTScratchAcc {
		t.Errorf("iTask should dominate at low data: %+v", first)
	}
	var sb strings.Builder
	FprintE9(&sb, "triage", rows)
	if !strings.Contains(sb.String(), "CNN-scratch") {
		t.Error("E9 table malformed")
	}
	if _, err := E9SampleEfficiency(env, "nope", []int{4}); err == nil {
		t.Error("unknown task should error")
	}
	if _, err := E9SampleEfficiency(env, "triage", []int{0}); err == nil {
		t.Error("zero sample count should error")
	}
}

func TestE10Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E10NoiseRobustness(env, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("E10 rows %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.FloatAcc, r.Int8Acc, r.Int4Acc} {
			if v < 0 || v > 1 {
				t.Errorf("accuracy out of range: %+v", r)
			}
		}
	}
	// Heavy noise must not HELP any variant (weak monotonic, with noise
	// tolerance).
	const tol = 0.08
	if rows[1].FloatAcc > rows[0].FloatAcc+tol {
		t.Errorf("noise improved float accuracy: %+v", rows)
	}
	// int8 should track float closely at nominal noise.
	if rows[0].Int8Acc < rows[0].FloatAcc-0.15 {
		t.Errorf("int8 far below float at nominal noise: %+v", rows[0])
	}
	var sb strings.Builder
	FprintE10(&sb, rows)
	if !strings.Contains(sb.String(), "noise scale") {
		t.Error("E10 table malformed")
	}
	if _, err := E10NoiseRobustness(env, []float64{-1}); err == nil {
		t.Error("negative scale should error")
	}
}

func TestE12Shape(t *testing.T) {
	// Analytical + event-sim only: no trained environment needed.
	rows, err := E12Streaming(33000, []float64{100, 2000, 6000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("E12 rows %d", len(rows))
	}
	// At low load everyone is comfortable; at high load the student
	// deployment (faster service) must beat the generalist-only one.
	low, high := rows[0], rows[2]
	if low.StudentsMissPct > 1 || low.GeneralistMissPct > 1 {
		t.Errorf("misses at low load: %+v", low)
	}
	if high.StudentsP95US >= high.GeneralistP95US {
		t.Errorf("students should sustain higher rates: %+v", high)
	}
	// Tight memory can only hurt relative to roomy.
	for _, r := range rows {
		if r.TightP95US+1e-9 < r.StudentsP95US {
			t.Errorf("tight budget outperformed roomy: %+v", r)
		}
	}
	var sb strings.Builder
	FprintE12(&sb, 33000, rows)
	if !strings.Contains(sb.String(), "generalist-only") {
		t.Error("E12 table malformed")
	}
}

func TestE13Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E13FaultInjection(env, []float64{1e-4, 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("E13 rows %d", len(rows))
	}
	if rows[1].FlippedBits <= rows[0].FlippedBits {
		t.Errorf("higher rate should flip more bits: %+v", rows)
	}
	// Heavy corruption must hurt (well beyond eval noise).
	if rows[1].DeltaVsClean > -0.02 && rows[1].MeanAcc > 0.05 {
		t.Errorf("1%% bit flips should visibly degrade accuracy: %+v", rows[1])
	}
	var sb strings.Builder
	FprintE13(&sb, rows)
	if !strings.Contains(sb.String(), "soft-error") {
		t.Error("E13 table malformed")
	}
	if _, err := E13FaultInjection(env, []float64{-1}); err == nil {
		t.Error("negative rate should error")
	}
}

func TestE11Shape(t *testing.T) {
	env := testEnv(t)
	rows, err := E11DeploymentVariants(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("E11 rows %d", len(rows))
	}
	if rows[0].DeltaVsDeployed != 0 {
		t.Error("baseline delta must be zero")
	}
	// No simplification may cost more than a modest accuracy budget.
	for _, r := range rows {
		if r.MeanAcc < 0 || r.MeanAcc > 1 {
			t.Errorf("accuracy out of range: %+v", r)
		}
		if r.DeltaVsDeployed < -0.15 {
			t.Errorf("variant %q loses too much accuracy: %+v", r.Variant, r)
		}
	}
	var sb strings.Builder
	FprintE11(&sb, rows)
	if !strings.Contains(sb.String(), "deployed") {
		t.Error("E11 table malformed")
	}
}
