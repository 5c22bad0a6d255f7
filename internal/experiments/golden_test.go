package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The golden suite pins the full numeric output of every figure
// (`papibench -figure <id>`, one fixture per Figures() ID) as byte-stable
// JSON fixtures under testdata/golden/. Any change to the serving engine,
// the cluster layer, the scenario generators, or the sweeps that shifts a
// single float shows up as a fixture diff — the regression net under every
// refactor. After an intentional behaviour change, refresh with:
//
//	go test ./internal/experiments -run TestGolden -update
//
// and review the fixture diff like any other code change (docs/TESTING.md).
var updateGolden = flag.Bool("update", false, "rewrite the golden figure fixtures under testdata/golden/")

// goldenFigures maps fixture names — the figure IDs — to result
// generators. Results marshal deterministically: struct fields in
// declaration order, float64s in Go's shortest round-tripping form.
func goldenFigures() map[string]func(t *testing.T) any {
	gens := map[string]func(t *testing.T) any{}
	for _, fig := range Figures() {
		gens[fig.ID] = func(t *testing.T) any {
			t.Helper()
			res, err := fig.Run()
			if err != nil {
				t.Fatalf("figure %s: %v", fig.ID, err)
			}
			return res
		}
	}
	return gens
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshaling golden: %v", err)
	}
	return append(data, '\n')
}

func TestGoldenFigures(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The fixtures pin exact float bit patterns. Go may fuse
		// multiply-adds on other architectures, which changes results by an
		// ulp; the equivalence and invariant suites still run everywhere.
		t.Skipf("golden fixtures are pinned on amd64, running on %s", runtime.GOARCH)
	}
	for name, gen := range goldenFigures() {
		t.Run(name, func(t *testing.T) {
			got := marshalGolden(t, gen(t))
			path := goldenPath(name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (generate with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from its golden fixture.\n%s\nIf the change is intentional, refresh with:\n\tgo test ./internal/experiments -run TestGolden -update\nand review the fixture diff.",
					name, goldenDiff(want, got))
			}
		})
	}
}

// goldenDiff renders a compact first-divergence report: full JSON diffs of
// these fixtures run to thousands of lines, and the first differing line is
// what identifies the drifted quantity.
func goldenDiff(want, got []byte) string {
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %s\n  regen:  %s",
				i+1, wantLines[i], gotLines[i])
		}
	}
	return fmt.Sprintf("fixture is %d lines, regenerated output %d lines (one is a prefix of the other)",
		len(wantLines), len(gotLines))
}

// The regenerated figure must also be stable run-to-run within one process
// (worker-pool scheduling must not leak into results) — cheap to assert
// while the goldens are already in memory.
func TestGoldenFiguresRunToRunStable(t *testing.T) {
	for name, gen := range goldenFigures() {
		t.Run(name, func(t *testing.T) {
			a := marshalGolden(t, gen(t))
			b := marshalGolden(t, gen(t))
			if !bytes.Equal(a, b) {
				t.Fatalf("%s is not run-to-run stable:\n%s", name, goldenDiff(a, b))
			}
		})
	}
}

// TestGoldenCoversEveryFigure: every registered figure has a fixture, and
// every fixture names a registered figure, so a new figure cannot ship
// unpinned and a retired one leaves no stale fixture behind.
func TestGoldenCoversEveryFigure(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range files {
		have[strings.TrimSuffix(filepath.Base(f), ".json")] = true
	}
	for _, id := range FigureIDs() {
		if !have[id] {
			t.Errorf("figure %s has no golden fixture %s (generate with -update)", id, goldenPath(id))
		}
		delete(have, id)
	}
	for name := range have {
		t.Errorf("fixture %s names no registered figure", goldenPath(name))
	}
}
