package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcmech"
	"funcmech/internal/census"
	"funcmech/internal/dataset"
	"funcmech/internal/experiments"
)

func TestParseAttribute(t *testing.T) {
	a, err := parseAttribute("age:16:95")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "age" || a.Min != 16 || a.Max != 95 {
		t.Fatalf("parsed %+v", a)
	}
}

func TestParseAttributeTrimsSpace(t *testing.T) {
	a, err := parseAttribute("  hours:0:99")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "hours" {
		t.Fatalf("parsed %+v", a)
	}
}

func TestParseAttributeErrors(t *testing.T) {
	for _, spec := range []string{"age", "age:1", "age:x:2", "age:1:y", "a:b:c:d"} {
		if _, err := parseAttribute(spec); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestParseSchema(t *testing.T) {
	s, err := parseSchema("age:16:95,hours:0:99", "income:0:300000")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Features) != 2 || s.Target.Name != "income" {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseSchemaInvalid(t *testing.T) {
	// Duplicate names fail schema validation.
	if _, err := parseSchema("a:0:1,a:0:1", "y:0:1"); err == nil {
		t.Error("duplicate features should fail")
	}
	// Empty domain.
	if _, err := parseSchema("a:5:5", "y:0:1"); err == nil {
		t.Error("empty domain should fail")
	}
	if _, err := parseSchema("a:0:1", "bad"); err == nil {
		t.Error("malformed target should fail")
	}
}

func TestParseSchemaPreservesOrder(t *testing.T) {
	s, err := parseSchema("b:0:1,a:0:1,c:0:1", "y:0:1")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(s.Features))
	for i, f := range s.Features {
		names[i] = f.Name
	}
	if strings.Join(names, ",") != "b,a,c" {
		t.Fatalf("order not preserved: %v", names)
	}
}

// fmrun runs the dispatcher on args and returns its exit status with what it
// wrote to stdout and stderr.
func fmrun(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunWithoutSubcommandPrintsUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"fmbench"}, {"-records", "5"}} {
		code, _, stderr := fmrun(args...)
		if code != 2 || !strings.Contains(stderr, usage) {
			t.Errorf("fmrun %q = %d, stderr %q; want 2 and the usage line", args, code, stderr)
		}
	}
}

func TestRunGenWritesCensusCSV(t *testing.T) {
	code, stdout, stderr := fmrun("gen", "-records", "50")
	if code != 0 {
		t.Fatalf("gen = %d: %s", code, stderr)
	}
	ds, err := dataset.ReadCSV(strings.NewReader(stdout), census.US().Schema())
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 50 {
		t.Fatalf("read back %d records, want 50", ds.N())
	}
}

func TestRunBenchList(t *testing.T) {
	code, stdout, stderr := fmrun("bench", "-list")
	if code != 0 {
		t.Fatalf("bench -list = %d: %s", code, stderr)
	}
	if want := strings.Join(experiments.ExperimentIDs(), "\n") + "\n"; stdout != want {
		t.Fatalf("bench -list printed %q, want %q", stdout, want)
	}
}

func TestRunPointRejectsUnevaluatedTask(t *testing.T) {
	code, _, stderr := fmrun("point", "-task", "median")
	if code != 1 {
		t.Fatalf("point -task median = %d, want 1", code)
	}
	for _, want := range []string{"linear", "logistic"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("point -task median stderr %q does not name %s", stderr, want)
		}
	}
}

// TestRunPointRefusesExplicitZeros: `point` refuses a zero -epsilon, -folds
// or -repeats, an -epsilon that is not finite, and one whose Laplace scale
// overflows, before it prints anything, instead of printing one
// configuration and running another or a table of failed fits (NaN-scaled
// or infinite noise, or a panic at +Inf).
func TestRunPointRefusesExplicitZeros(t *testing.T) {
	for _, args := range [][]string{
		{"-epsilon", "0"}, {"-folds", "0"}, {"-repeats", "0"},
		{"-epsilon", "NaN"}, {"-epsilon", "+Inf"}, {"-epsilon", "-Inf"},
		{"-epsilon", "1e-320"},
	} {
		code, stdout, stderr := fmrun(append([]string{"point", "-records", "2000"}, args...)...)
		if code == 0 || stdout != "" {
			t.Errorf("point %s = %d, stdout %q; want a failure and no table", args, code, stdout)
		}
		if !strings.Contains(stderr, "need") {
			t.Errorf("point %s stderr %q does not say what it needs", args, stderr)
		}
	}
}

// TestRunFitRefusesUnusableEpsilon: `fit` refuses an -epsilon that is not
// finite and positive with an error that says what ε needs, and releases
// nothing; at +Inf it used to panic drawing noise at scale 0.
func TestRunFitRefusesUnusableEpsilon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.csv")
	if err := os.WriteFile(path, []byte("x,y\n0.2,0.4\n0.6,0.8\n0.9,0.7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []string{"+Inf", "NaN", "0"} {
		code, stdout, stderr := fmrun("fit", "-csv", path, "-features", "x:0:1", "-target", "y:0:1", "-epsilon", eps, "-seed", "1")
		if code != 1 || strings.Contains(stdout, "privacy:") || !strings.Contains(stderr, "need") {
			t.Errorf("fit -epsilon %s = %d, stdout %q, stderr %q; want 1, no release and what ε needs", eps, code, stdout, stderr)
		}
	}
}

// TestRunFitExactBaselineTakesRidge: `fit -task ridge -exact` compares the
// private ridge fit with the non-private ridge fit, not with unpenalized
// least squares.
func TestRunFitExactBaselineTakesRidge(t *testing.T) {
	schema, err := parseSchema("x1:0:10,x2:0:5", "y:0:50")
	if err != nil {
		t.Fatal(err)
	}
	ds := funcmech.NewDataset(schema)
	csv := "x1,x2,y\n"
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 500; i++ {
		x1, x2 := rng.Float64()*10, rng.Float64()*5
		y := 3*x1 + 2*x2 + rng.Float64()
		ds.Append([]float64{x1, x2}, y)
		csv += fmt.Sprintf("%v,%v,%v\n", x1, x2, y)
	}
	path := filepath.Join(t.TempDir(), "toy.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := fmrun("fit", "-csv", path, "-features", "x1:0:10,x2:0:5", "-target", "y:0:50",
		"-task", "ridge", "-ridge", "100", "-exact", "-seed", "1")
	if code != 0 {
		t.Fatalf("fit = %d: %s", code, stderr)
	}
	mse := func(opts ...funcmech.Option) string {
		m, err := funcmech.LinearRegressionExact(ds, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("non-private MSE (raw units): %.6g\n", m.MSE(ds))
	}
	ridged, plain := mse(funcmech.WithRidge(100)), mse()
	if ridged == plain {
		t.Fatalf("the ridge penalty does not change the baseline's MSE: %q", ridged)
	}
	if !strings.Contains(stdout, ridged) {
		t.Fatalf("fit output lacks the ridge baseline %q:\n%s", ridged, stdout)
	}
}

// TestRunFitThresholdZero: an explicit `-threshold 0` binarizes a [−1, 1]
// target at 0 instead of being taken for "no threshold".
func TestRunFitThresholdZero(t *testing.T) {
	csv := "x1,x2,y\n"
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 400; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		csv += fmt.Sprintf("%v,%v,%v\n", x1, x2, x1-x2+0.2*rng.NormFloat64())
	}
	path := filepath.Join(t.TempDir(), "signed.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"fit", "-csv", path, "-features", "x1:0:1,x2:0:1", "-target", "y:-1:1", "-task", "logistic", "-seed", "1"}
	if code, _, _ := fmrun(args...); code != 1 {
		t.Fatalf("fit of a [−1, 1] target with no threshold = %d, want 1", code)
	}
	code, stdout, stderr := fmrun(append(args, "-threshold", "0")...)
	if code != 0 {
		t.Fatalf("fit -threshold 0 = %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "training misclassification rate") {
		t.Fatalf("fit -threshold 0 printed no misclassification rate:\n%s", stdout)
	}
	if code, _, _ := fmrun(append(args, "-threshold", "zero")...); code != 2 {
		t.Fatalf("fit -threshold zero = %d, want the usage status 2", code)
	}
	// A threshold that parses but is not finite would label every record
	// alike: the fit refuses it and prints no weights.
	for _, th := range []string{"NaN", "+Inf", "-Inf"} {
		code, stdout, stderr := fmrun(append(args, "-threshold", th)...)
		if code != 1 || strings.Contains(stdout, "weights") || !strings.Contains(stderr, "not finite") {
			t.Fatalf("fit -threshold %s = %d, stderr %q, stdout:\n%s\nwant exit 1 with no weights", th, code, stderr, stdout)
		}
	}
}
