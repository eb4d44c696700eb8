package lint_test

import (
	"testing"

	"funcmech/internal/lint"
	"funcmech/internal/lint/analysis"
)

// Each analyzer runs against a deliberately broken fixture package under
// testdata/src, with // want comments marking the expected findings and
// conforming code proving the negative cases. LoadFixtures pulls in fixture
// imports (cbn/serve → cbn/noise, cbn/wal) automatically.

func TestChargeBeforeNoise(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.ChargeBeforeNoise, "cbn/serve")
}

func TestSyncAfterRename(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.SyncAfterRename, "syncafterrename/a")
}

func TestDetFloat(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.DetFloat, "detfloat/core")
}

func TestNakedRand(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.NakedRand, "nakedrand/core", "nakedrand/noise")
}

func TestNoAlloc(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.NoAlloc, "noalloc/a")
}

func TestCleanLog(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.CleanLog, "cleanlog/serve")
}

func TestTaskReg(t *testing.T) {
	analysis.RunTest(t, "testdata", lint.TaskReg, "taskreg/serve", "taskreg/core")
}

// TestSuiteOnCleanPackage runs the whole suite over a trivial conforming
// package and expects silence.
func TestSuiteOnCleanPackage(t *testing.T) {
	prog, err := analysis.LoadFixtures("testdata", "clean")
	if err != nil {
		t.Fatalf("loading clean fixture: %v", err)
	}
	findings, err := analysis.Run(prog, lint.Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on clean package: %s", f)
	}
}

// TestMalformedIgnoreSurfaces pins the suppression contract: an
// //fmlint:ignore without a justification suppresses nothing and is itself a
// finding.
func TestMalformedIgnoreSurfaces(t *testing.T) {
	prog, err := analysis.LoadFixtures("testdata", "badignore/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.Run(prog, lint.Suite())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var sawMalformed, sawUnsuppressed bool
	for _, f := range findings {
		switch f.Analyzer {
		case "fmlint":
			sawMalformed = true
		case "noalloc":
			sawUnsuppressed = true
		}
	}
	if !sawMalformed {
		t.Errorf("expected a malformed-directive finding from the fmlint pseudo-analyzer; got %v", findings)
	}
	if !sawUnsuppressed {
		t.Errorf("expected the justification-free ignore to suppress nothing; got %v", findings)
	}
}
