package experiments

import (
	"fmt"
	"io"

	"itask/internal/quant"
	"itask/internal/scene"
	"itask/internal/tensor"
)

// E11Row is one deployment variant of the quantized generalist.
type E11Row struct {
	Variant string
	MeanAcc float64
	// DeltaVsDeployed is MeanAcc minus the deployed default
	// (dynamic activation quantization, exact vector unit).
	DeltaVsDeployed float64
}

// E11DeploymentVariants quantifies the two hardware simplifications an
// edge deployment trades accuracy for:
//
//   - static (calibrated) activation quantization instead of a runtime
//     min/max scan per tensor, and
//   - the vector unit's approximate softmax/LayerNorm/GELU instead of
//     exact transcendentals.
//
// All four combinations are evaluated across the four tasks on the same
// validation scenes.
func E11DeploymentVariants(env *Env) ([]E11Row, error) {
	// A fresh copy of the deployed model, so toggles never leak into
	// env.Quant.
	qm, err := quant.FromViT(env.Teacher, quant.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Calibration set: fresh in-distribution scenes from every domain.
	rng := tensor.NewRNG(131313)
	var calib []*tensor.Tensor
	for _, task := range env.Tasks {
		dom := scene.GetDomain(task.Domain)
		for i := 0; i < 4; i++ {
			calib = append(calib, scene.Generate(dom, env.Gen, rng).Image)
		}
	}
	sp, err := quant.Calibrate(env.Teacher, calib, quant.DefaultConfig(), 0.999)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name   string
		static bool
		approx bool
	}{
		{"dynamic + exact vector (deployed)", false, false},
		{"dynamic + approx vector", false, true},
		{"static + exact vector", true, false},
		{"static + approx vector", true, true},
	}
	var rows []E11Row
	var base float64
	for i, v := range variants {
		if v.static {
			if err := qm.SetStatic(sp); err != nil {
				return nil, err
			}
		} else {
			if err := qm.SetStatic(nil); err != nil {
				return nil, err
			}
		}
		qm.SetApproxVector(v.approx)
		acc := env.meanAcc(env.quantDetector(qm))
		if i == 0 {
			base = acc
		}
		rows = append(rows, E11Row{
			Variant:         v.name,
			MeanAcc:         acc,
			DeltaVsDeployed: acc - base,
		})
	}
	return rows, nil
}

// FprintE11 renders the deployment-variant table.
func FprintE11(w io.Writer, rows []E11Row) {
	fmt.Fprintf(w, "E11 — deployment variants of the quantized generalist (mean over tasks)\n")
	fmt.Fprintf(w, "%-36s %10s %12s\n", "variant", "mean acc", "vs deployed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %9.1f%% %+11.1f%%\n", r.Variant, 100*r.MeanAcc, 100*r.DeltaVsDeployed)
	}
}
