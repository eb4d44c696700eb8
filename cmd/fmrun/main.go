// Command fmrun fits ε-differentially private regressions and runs the
// paper's §7 evaluation harness:
//
//	fmrun fit    fit any task on a CSV file through the public API
//	fmrun bench  regenerate the §7 figures' data series and the ablations
//	fmrun point  evaluate every §7 method at one configuration
//	fmrun gen    write a synthetic census dataset as CSV
//
// Each subcommand has its own flags (fmrun <subcommand> -h). fit takes the
// schema, column names with their public domain bounds, on the command line:
// the bounds must be domain knowledge, because computing them from the file
// would leak. It hands -task and its options to FitTask, so every task in
// the table is available and the library decides which options it takes.
// bench and point evaluate the paper's two case studies, linear and
// logistic regression. -records=0 means the full census cardinality (370k
// US / 190k Brazil).
//
//	fmrun fit -csv=data.csv -task=logistic -epsilon=0.8 -threshold=35000 \
//	      -features='age:16:95,hours:0:99' -target='income:0:300000'
//	fmrun bench -experiment=fig6 -records=0 -repeats=50   # paper scale
//	fmrun bench -list                                     # experiment IDs
//	fmrun point -profile=us -task=linear -dim=14 -records=0
//	fmrun gen -profile=brazil -records=0 -o brazil.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"funcmech"
	"funcmech/internal/core"
)

const usage = "usage: fmrun fit|bench|point|gen [flags]"

// A command registers its flags on fs and returns what runs once they are
// parsed.
type command func(fs *flag.FlagSet) func(stdout io.Writer) error

var commands = map[string]command{"fit": fit, "bench": bench, "point": point, "gen": gen}

// errUsage reports missing required flags; run prints the flag set's usage.
var errUsage = errors.New("missing required flags")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args to a subcommand and returns the exit status: 0 on
// success, 1 when the subcommand fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	name := args[0]
	fs := flag.NewFlagSet("fmrun "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := commands[name](fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch err := exec(stdout); {
	case errors.Is(err, errUsage):
		fs.Usage()
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "fmrun %s: %v\n", name, err)
		return 1
	}
	return 0
}

func fit(fs *flag.FlagSet) func(io.Writer) error {
	var (
		csvPath  = fs.String("csv", "", "input CSV with a header row (required)")
		task     = fs.String("task", core.TaskNameLinear, "task name (see funcmech.TaskNames)")
		epsilon  = fs.Float64("epsilon", 0.8, "privacy budget ε")
		features = fs.String("features", "", "feature bounds, comma-separated name:min:max (required)")
		target   = fs.String("target", "", "target bounds, name:min:max (required)")
		//fmlint:ignore taskreg names the CLI flag, not a task
		ridge = fs.Float64("ridge", 0, "ridge penalty weight, for tasks that take one")
		seed  = fs.Int64("seed", 0, "noise seed (0 = random)")
		exact = fs.Bool("exact", false, "also fit the non-private least-squares baseline, with the same -ridge, for comparison")

		threshold *float64 // nil until -threshold is given, so 0 is a threshold like any other
	)
	fs.Func("threshold", "binarization threshold for boolean-target tasks (unset = target already boolean)", func(v string) error {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		threshold = &t
		return nil
	})
	return func(w io.Writer) error {
		if *csvPath == "" || *features == "" || *target == "" {
			return errUsage
		}
		schema, err := parseSchema(*features, *target)
		if err != nil {
			return err
		}
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err := funcmech.ReadDatasetCSV(f, schema)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %d records × %d features from %s\n", ds.Len(), ds.NumFeatures(), *csvPath)

		var opts []funcmech.Option
		if *seed != 0 {
			opts = append(opts, funcmech.WithSeed(*seed))
		}
		if threshold != nil {
			opts = append(opts, funcmech.WithBinarizeThreshold(*threshold))
		}
		if *ridge != 0 {
			opts = append(opts, funcmech.WithRidge(*ridge))
		}

		model, report, err := funcmech.FitTask(ds, *task, *epsilon, opts...)
		if err != nil {
			return err
		}
		info := model.Task()
		printReport(w, report)
		printWeights(w, schema, model.Weights())
		if info.Boolean {
			if rate, err := model.MisclassificationRate(ds); err == nil {
				fmt.Fprintf(w, "training misclassification rate: %.4f\n", rate)
			}
			return nil
		}
		fmt.Fprintf(w, "training MSE (raw units): %.6g\n", model.MSE(ds))
		fmt.Fprintf(w, "training MAE (raw units): %.6g\n", model.MAE(ds))
		if *exact {
			base, err := funcmech.LinearRegressionExact(ds, opts...)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "non-private MSE (raw units): %.6g\n", base.MSE(ds))
		}
		return nil
	}
}

func parseSchema(features, target string) (funcmech.Schema, error) {
	var s funcmech.Schema
	for _, spec := range strings.Split(features, ",") {
		a, err := parseAttribute(spec)
		if err != nil {
			return s, err
		}
		s.Features = append(s.Features, a)
	}
	a, err := parseAttribute(target)
	if err != nil {
		return s, err
	}
	s.Target = a
	return s, s.Validate()
}

func parseAttribute(spec string) (funcmech.Attribute, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) != 3 {
		return funcmech.Attribute{}, fmt.Errorf("attribute %q: want name:min:max", spec)
	}
	lo, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return funcmech.Attribute{}, fmt.Errorf("attribute %q: bad min: %w", spec, err)
	}
	hi, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return funcmech.Attribute{}, fmt.Errorf("attribute %q: bad max: %w", spec, err)
	}
	return funcmech.Attribute{Name: parts[0], Min: lo, Max: hi}, nil
}

func printReport(w io.Writer, r *funcmech.Report) {
	fmt.Fprintf(w, "privacy: ε spent %.4g, sensitivity Δ %.4g, noise scale %.4g, λ %.4g, trimmed %d, resamples %d\n",
		r.Epsilon, r.Delta, r.NoiseScale, r.Lambda, r.Trimmed, r.Resamples)
}

func printWeights(w io.Writer, s funcmech.Schema, weights []float64) {
	fmt.Fprintln(w, "weights (normalized feature space):")
	for i, a := range s.Features {
		fmt.Fprintf(w, "  %-20s %+.6f\n", a.Name, weights[i])
	}
}
