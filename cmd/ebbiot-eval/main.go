// Command ebbiot-eval reproduces Fig. 4: it evaluates EBBIOT, EBBI+KF and
// EBMS over synthetic ENG and LT4 replicas and prints the weighted-average
// precision/recall at each IoU threshold.
//
// The 3 systems x 2 recordings grid is sharded across pipeline workers;
// scores are identical for any -workers value. The EBBI-based systems run
// the packed word-parallel frame kernels.
//
// Usage:
//
//	ebbiot-eval [-seconds 25] [-seed 11] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"os"

	"ebbiot/internal/core"
	"ebbiot/internal/dataset"
	"ebbiot/internal/eval"
	"ebbiot/internal/metrics"
	"ebbiot/internal/roe"
	"ebbiot/internal/vis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebbiot-eval:", err)
		os.Exit(1)
	}
}

func run() error {
	seconds := flag.Float64("seconds", 25, "replica length per recording in seconds")
	seed := flag.Uint64("seed", 11, "generator seed")
	workers := flag.Int("workers", 0, "worker goroutines sharding the system x recording grid (0 = one per CPU)")
	flag.Parse()
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	mask := roe.New(dataset.TreeROEENG())
	factories := map[string]eval.SystemFactory{
		"EBBIOT": func() (core.System, error) {
			return core.NewEBBIOT(core.DefaultConfig().WithROE(mask))
		},
		"EBBI+KF": func() (core.System, error) {
			cfg := core.DefaultKFConfig()
			cfg.ROE = mask
			return core.NewEBBIKF(cfg)
		},
		"EBMS": func() (core.System, error) {
			cfg := core.DefaultEBMSConfig()
			cfg.ROE = mask
			return core.NewEBMS(cfg)
		},
	}
	recs := []eval.RecordingSpec{
		{Name: "ENG", Preset: dataset.ENG, Scale: *seconds / 2998.4, Seed: *seed},
		{Name: "LT4", Preset: dataset.LT4, Scale: *seconds / 999.5, Seed: *seed + 2},
	}
	opt := eval.DefaultOptions()
	opt.Workers = *workers
	results, err := eval.CompareSystems(factories, recs, metrics.DefaultThresholds(), opt)
	if err != nil {
		return err
	}

	fmt.Println("# Fig. 4 reproduction: weighted-average precision/recall vs IoU threshold")
	fmt.Printf("%-10s", "system")
	for _, p := range results[0].Points {
		fmt.Printf("  P@%.1f  R@%.1f", p.IoUThreshold, p.IoUThreshold)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-10s", r.System)
		for _, p := range r.Points {
			fmt.Printf("  %5.3f  %5.3f", p.Precision, p.Recall)
		}
		fmt.Println()
	}

	var prec, rec2 []vis.Series
	for _, r := range results {
		var xs, ps, rs []float64
		for _, p := range r.Points {
			xs = append(xs, p.IoUThreshold)
			ps = append(ps, p.Precision)
			rs = append(rs, p.Recall)
		}
		prec = append(prec, vis.Series{Name: r.System, X: xs, Y: ps})
		rec2 = append(rec2, vis.Series{Name: r.System, X: xs, Y: rs})
	}
	if chart, err := vis.Chart(prec, 56, 12); err == nil {
		fmt.Println("\n# Precision vs IoU threshold")
		fmt.Print(chart)
	}
	if chart, err := vis.Chart(rec2, 56, 12); err == nil {
		fmt.Println("\n# Recall vs IoU threshold")
		fmt.Print(chart)
	}

	fmt.Println("\n# Per-recording detail (unweighted)")
	for _, r := range results {
		for _, pr := range r.PerRecording {
			fmt.Printf("%-10s %-4s (weight %d):", r.System, pr.Name, pr.TrackWeight)
			for _, p := range pr.Points {
				fmt.Printf("  %5.3f/%5.3f", p.Precision, p.Recall)
			}
			fmt.Println()
		}
	}
	return nil
}
