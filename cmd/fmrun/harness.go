package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"funcmech/internal/census"
	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/experiments"
)

// harnessFlags registers the flags bench and point share onto cfg, taking
// cfg's values as the defaults.
func harnessFlags(fs *flag.FlagSet, cfg *experiments.Config) {
	fs.IntVar(&cfg.Records, "records", cfg.Records, "records per dataset, capped at the census cardinality (0 = full: 370k US / 190k Brazil)")
	fs.IntVar(&cfg.Repeats, "repeats", cfg.Repeats, "repetitions of the k-fold protocol (paper: 50)")
	fs.IntVar(&cfg.Folds, "folds", cfg.Folds, "cross-validation folds")
	fs.Float64Var(&cfg.Epsilon, "epsilon", cfg.Epsilon, "privacy budget ε (bench: for the sweeps that hold ε fixed)")
	fs.IntVar(&cfg.Dimensionality, "dim", cfg.Dimensionality, "dimensionality incl. target: 5, 8, 11 or 14 (bench: for the sweeps that hold d fixed)")
	fs.Int64Var(&cfg.BaseSeed, "seed", cfg.BaseSeed, "base seed; runs with the same seed and parallelism on the same machine are identical")
}

func bench(fs *flag.FlagSet) func(io.Writer) error {
	cfg := experiments.DefaultConfig()
	harnessFlags(fs, &cfg)
	var (
		experiment = fs.String("experiment", "all", "experiment ID (params, fig2…fig9, ablation, taylor, lambda) or 'all'")
		par        = fs.Int("parallelism", 0, "objective-accumulation workers for FM fits (0 = all cores, 1 = serial, which makes results machine-independent)")
		plot       = fs.Bool("plot", false, "render each sweep as an ASCII chart after its table")
		csv        = fs.Bool("csv", false, "emit sweep results as CSV instead of aligned tables")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
	)
	return func(w io.Writer) error {
		if *list {
			fmt.Fprintln(w, strings.Join(experiments.ExperimentIDs(), "\n"))
			return nil
		}
		cfg.Parallelism, cfg.Plot, cfg.CSV = *par, *plot, *csv
		ids := []string{*experiment}
		if *experiment == "all" {
			ids = experiments.ExperimentIDs()
		}
		for _, id := range ids {
			fmt.Fprintf(w, "=== %s ===\n", id)
			if err := experiments.RunExperiment(id, cfg, w); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func point(fs *flag.FlagSet) func(io.Writer) error {
	cfg := experiments.DefaultConfig()
	cfg.Repeats = 1
	harnessFlags(fs, &cfg)
	var (
		profile = fs.String("profile", "us", "census profile: us or brazil")
		task    = fs.String("task", core.TaskNameLinear, "task: linear or logistic")
	)
	return func(w io.Writer) error {
		p, err := census.ProfileByName(*profile)
		if err != nil {
			return err
		}
		spec, err := experiments.TaskByName(strings.ToLower(*task))
		if err != nil {
			return err
		}
		ds, err := experiments.PrepareTask(cfg, p, spec, cfg.Dimensionality)
		if err != nil {
			return err
		}
		title := experiments.TaskTitle(spec)
		res, err := experiments.EvaluateMethods(cfg, ds, spec, cfg.Epsilon,
			fmt.Sprintf("point/%s/%s/%d/%g", p.Name, title, cfg.Dimensionality, cfg.Epsilon))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s-%s  n=%d  d=%d(+target)  ε=%g  %d×%d-fold CV\n",
			p.Name, title, ds.N(), ds.D(), cfg.Epsilon, cfg.Repeats, cfg.Folds)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "method\tmetric\tstddev\tfit seconds\tfailures\t")
		for _, r := range res {
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%d\t\n", r.Method, r.Metric, r.StdDev, r.FitSeconds, r.Failures)
		}
		return tw.Flush()
	}
}

// gen writes the synthetic census dataset this repository uses in place of
// the licensed IPUMS extracts (see internal/census for the substitution).
func gen(fs *flag.FlagSet) func(io.Writer) error {
	var (
		profile = fs.String("profile", "us", "census profile: us or brazil")
		records = fs.Int("records", 10000, "number of records (0 = the full cardinality: 370k US / 190k Brazil)")
		seed    = fs.Int64("seed", 1, "generator seed")
		out     = fs.String("o", "", "output file (default stdout)")
	)
	return func(w io.Writer) error {
		p, err := census.ProfileByName(*profile)
		if err != nil {
			return err
		}
		n := *records
		switch {
		case n < 0:
			return fmt.Errorf("negative -records %d", n)
		case n == 0:
			n = p.Records
		}
		ds := census.GenerateN(p, n, *seed)
		if *out == "" {
			return dataset.WriteCSV(w, ds)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := dataset.WriteCSV(f, ds); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}
