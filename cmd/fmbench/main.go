// Command fmbench regenerates the paper's evaluation (§7): every figure's
// data series as text tables, plus the parameter table and the two ablation
// studies. Experiment IDs name the §7 figures (fig2–fig9) and the studies
// beside them; -list prints them all.
//
// Usage:
//
//	fmbench -experiment=fig4                 # one experiment, reduced scale
//	fmbench -experiment=all -records=30000   # everything
//	fmbench -experiment=fig6 -full -repeats=50   # paper-scale run
//	fmbench -list                            # show experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"funcmech/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (params, fig2…fig9, ablation, taylor) or 'all'")
		records    = flag.Int("records", 30000, "records per dataset (caps the census cardinality)")
		full       = flag.Bool("full", false, "use the full census cardinality (370k US / 190k Brazil); overrides -records")
		repeats    = flag.Int("repeats", 3, "repetitions of the 5-fold protocol (paper: 50)")
		folds      = flag.Int("folds", 5, "cross-validation folds")
		epsilon    = flag.Float64("epsilon", experiments.DefaultEpsilon, "default privacy budget for non-ε sweeps")
		dim        = flag.Int("dim", experiments.DefaultDimensionality, "default dimensionality for non-d sweeps (5, 8, 11, 14)")
		seed       = flag.Int64("seed", 1, "base seed; runs with the same seed and parallelism on the same machine are identical (use -parallelism=1 for machine-independent results)")
		par        = flag.Int("parallelism", 0, "objective-accumulation workers for FM fits (0 = all cores, 1 = serial)")
		plotFlag   = flag.Bool("plot", false, "render each sweep as an ASCII chart after its table")
		csvFlag    = flag.Bool("csv", false, "emit sweep results as CSV instead of aligned tables")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.ExperimentIDs(), "\n"))
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Records = *records
	if *full {
		cfg.Records = 0
	}
	cfg.Repeats = *repeats
	cfg.Folds = *folds
	cfg.Epsilon = *epsilon
	cfg.Dimensionality = *dim
	cfg.BaseSeed = *seed
	cfg.Parallelism = *par
	cfg.Plot = *plotFlag
	cfg.CSV = *csvFlag

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experiments.ExperimentIDs()
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		if err := experiments.RunExperiment(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
