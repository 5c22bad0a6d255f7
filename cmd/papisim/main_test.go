package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsBadAlpha: an α no dynamic policy can mean returns an error
// naming -alpha, never a silently substituted default or an infinite
// threshold; a good override still runs.
func TestRunRejectsBadAlpha(t *testing.T) {
	runAlpha := func(alpha float64) error {
		return run("PAPI", "LLaMA-65B", "general-qa", 2, 1, 42, alpha, false, 10, 0, 0, false)
	}
	for _, tc := range []struct {
		name  string
		alpha float64
	}{
		{"negative", -1},
		{"NaN", math.NaN()},
		{"infinite", math.Inf(1)},
		{"minus infinity", math.Inf(-1)},
	} {
		err := runAlpha(tc.alpha)
		if err == nil {
			t.Errorf("%s: run accepted α = %v", tc.name, tc.alpha)
			continue
		}
		if !strings.Contains(err.Error(), "-alpha") {
			t.Errorf("%s: error %q does not name -alpha", tc.name, err)
		}
	}
	if err := runAlpha(32); err != nil {
		t.Fatalf("good α rejected: %v", err)
	}
}
