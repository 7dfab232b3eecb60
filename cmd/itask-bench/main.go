// Command itask-bench regenerates every table and figure of the iTask
// evaluation (experiment index in DESIGN.md §4) from a single deterministic
// training run.
//
// Usage:
//
//	itask-bench [-scale quick|full] [-only E1,E3,...]
//
// Hardware experiments (E3, E5, E6, E12) are analytical and run instantly;
// the accuracy experiments first build the model zoo (internal/zoo) that
// itask-train serves. The quick scale runs in seconds, the full scale in
// about a minute (2-core x86 box).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"itask/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment ids (E1..E8); empty = all")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "itask-bench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *onlyFlag == "" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"} {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*onlyFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	out := os.Stdout

	// Analytical experiments need no training.
	if want["E3"] {
		experiments.FprintE3(out, experiments.E3Hardware())
		experiments.FprintE3Batch(out, experiments.E3GPUBatchSweep())
		fmt.Fprintln(out)
	}
	if want["E5"] {
		experiments.FprintE5(out, experiments.E5ArraySweep())
		fmt.Fprintln(out)
	}
	if want["E6"] {
		experiments.FprintE6(out, experiments.E6EnergyBreakdown())
		fmt.Fprintln(out)
	}
	if want["E12"] {
		rows, err := experiments.E12Streaming(33000, []float64{500, 1000, 2000, 4000, 6000})
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E12: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE12(out, 33000, rows)
		fmt.Fprintln(out)
	}

	needEnv := want["E1"] || want["E2"] || want["E4"] || want["E7"] || want["E8"] ||
		want["E9"] || want["E10"] || want["E11"] || want["E13"]
	if !needEnv {
		return
	}
	fmt.Fprintf(os.Stderr, "itask-bench: building the %s-scale zoo (teacher, int8 generalist, %d students, base)...\n",
		scale.Name, 4)
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itask-bench: %v\n", err)
		os.Exit(1)
	}

	if want["E1"] {
		experiments.FprintE1(out, experiments.E1ConfigAccuracy(env))
		fmt.Fprintln(out)
	}
	if want["E2"] {
		experiments.FprintE2(out, env, experiments.E2MultiTask(env))
		fmt.Fprintln(out)
	}
	if want["E4"] {
		rows, err := experiments.E4FewShot(env, "harvest")
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E4: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE4(out, "harvest", rows)
		fmt.Fprintln(out)
	}
	if want["E7"] {
		rows, err := experiments.E7BitWidth(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E7: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE7(out, rows)
		fmt.Fprintln(out)
	}
	if want["E8"] {
		kgRows, err := experiments.E8KGAblation(env, "patrol")
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E8a: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE8KG(out, "patrol", kgRows)
		dRows, err := experiments.E8DistillAblation(env, "inspect")
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E8b: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE8Distill(out, "inspect", dRows)
		fmt.Fprintln(out)
	}
	if want["E9"] {
		rows, err := experiments.E9SampleEfficiency(env, "triage", scale.E9Samples)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E9: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE9(out, "triage", rows)
		fmt.Fprintln(out)
	}
	if want["E10"] {
		rows, err := experiments.E10NoiseRobustness(env, []float64{1, 2, 3, 4})
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E10: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE10(out, rows)
		fmt.Fprintln(out)
	}
	if want["E11"] {
		rows, err := experiments.E11DeploymentVariants(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E11: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE11(out, rows)
		fmt.Fprintln(out)
	}
	if want["E13"] {
		rows, err := experiments.E13FaultInjection(env, []float64{1e-5, 1e-4, 1e-3, 1e-2})
		if err != nil {
			fmt.Fprintf(os.Stderr, "itask-bench: E13: %v\n", err)
			os.Exit(1)
		}
		experiments.FprintE13(out, rows)
	}
}
