package analysis_test

import (
	"os/exec"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/analysis"
)

// TestRepoIsClean is the meta-test: the whole module must analyze to zero
// papivet findings, the same gate cmd/papivet (and the CI analysis job)
// enforces. A regression anywhere in the repo fails `go test ./...` here
// with the exact file:line:col finding.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := analysis.LoadModule("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module load looks broken", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteShape pins the analyzer roster: exactly the four contracts, under
// their waivable names.
func TestSuiteShape(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	want := []string{"determinism", "unitsafety", "noalloc", "facade"}
	if len(names) != len(want) {
		t.Fatalf("analyzers %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("analyzers %v, want %v", names, want)
		}
	}
}

// TestConfiguredPackagesExist: every package path the suite is configured
// with names a package of this module, so deleting or renaming a package
// cannot leave a stale entry that silently checks nothing.
func TestConfiguredPackagesExist(t *testing.T) {
	cmd := exec.Command("go", "list", "-e", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	paths := strings.Fields(string(out))
	cfg := analysis.DefaultFacadeConfig()
	specs := append(append([]string(nil), analysis.UnitSafePackages...), analysis.DeterministicPackages...)
	for _, lk := range cfg.Lookups {
		specs = append(specs, lk.Pkg)
	}
	for _, reg := range cfg.Registries {
		specs = append(specs, reg.Pkg)
	}
	for _, spec := range specs {
		found := false
		for _, p := range paths {
			// A "/suffix" spec matches by suffix, anything else exactly.
			found = found || p == spec || strings.HasPrefix(spec, "/") && strings.HasSuffix(p, spec)
		}
		if !found {
			t.Errorf("configured package %q matches no package in the module", spec)
		}
	}
}
