package experiments

import (
	"fmt"
	"io"

	"itask/internal/quant"
)

// E13Row is one point of the soft-error reliability study.
type E13Row struct {
	// RatePerBit is the independent flip probability per stored weight bit.
	RatePerBit float64
	// FlippedBits is the realized number of corrupted bits.
	FlippedBits int
	// MeanAcc is accuracy of the corrupted int8 generalist, mean over tasks.
	MeanAcc float64
	// DeltaVsClean is MeanAcc minus the fault-free accuracy.
	DeltaVsClean float64
}

// E13FaultInjection measures how the deployed int8 generalist degrades
// under weight-memory soft errors — the SRAM-reliability analysis a DAC
// accelerator evaluation runs before choosing ECC/voltage margins.
func E13FaultInjection(env *Env, rates []float64) ([]E13Row, error) {
	clean := env.meanAcc(env.quantDetector(env.Quant))

	var rows []E13Row
	for _, rate := range rates {
		// A fresh copy of the deployed model: quantization is deterministic.
		qm, err := quant.FromViT(env.Teacher, env.Quant.QC)
		if err != nil {
			return nil, err
		}
		flips, err := quant.InjectBitFlips(qm, rate, 97)
		if err != nil {
			return nil, err
		}
		acc := env.meanAcc(env.quantDetector(qm))
		rows = append(rows, E13Row{
			RatePerBit:   rate,
			FlippedBits:  flips,
			MeanAcc:      acc,
			DeltaVsClean: acc - clean,
		})
	}
	return rows, nil
}

// FprintE13 renders the reliability series.
func FprintE13(w io.Writer, rows []E13Row) {
	fmt.Fprintf(w, "E13 — weight-SRAM soft-error injection (int8 generalist, mean over tasks)\n")
	fmt.Fprintf(w, "%-12s %12s %10s %12s\n", "rate/bit", "bits flipped", "mean acc", "vs clean")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12.0e %12d %9.1f%% %+11.1f%%\n",
			r.RatePerBit, r.FlippedBits, 100*r.MeanAcc, 100*r.DeltaVsClean)
	}
}
