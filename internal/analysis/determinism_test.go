package analysis_test

import (
	"testing"

	"github.com/papi-sim/papi/internal/analysis"
	"github.com/papi-sim/papi/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	for _, path := range []string{"determ", "determ/internal/experiments"} {
		a := analysis.NewDeterminism(func(p string) bool { return p == path })
		analysistest.Run(t, "testdata", a, path)
	}
}

func TestDeterminismWaivers(t *testing.T) {
	a := analysis.NewDeterminism(func(path string) bool { return path == "determwaiver" })
	analysistest.Run(t, "testdata", a, "determwaiver")
}

// TestNoallocDirectiveOutsideDocComment pins the one directive misuse the
// fixture comments cannot annotate inline (a bare //papivet:noalloc in a
// body would swallow the want text as arguments).
func TestNoallocDirectiveOutsideDocComment(t *testing.T) {
	pkgs, err := analysis.LoadFixtures("testdata", "dirmisuse")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if got := diags[0].Message; got != "papivet:noalloc must appear in a function's doc comment" {
		t.Errorf("unexpected message %q", got)
	}
}
