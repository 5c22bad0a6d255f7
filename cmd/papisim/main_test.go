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
	// A static policy has no α for the override to set.
	err := run("A100+AttAcc", "LLaMA-65B", "general-qa", 2, 1, 42, 5, false, defaultRate, 0, 0, false)
	if err == nil || !strings.Contains(err.Error(), "-alpha") {
		t.Fatalf("α on a static design: error %v does not name -alpha", err)
	}
}

// TestRunRejectsBadNumbers: a batch size, arrival rate or count no run can
// mean, or one the chosen mode ignores, returns an error naming its flag —
// never a panic, never a silently substituted default.
func TestRunRejectsBadNumbers(t *testing.T) {
	type args struct {
		batch              int
		continuous         bool
		rate               float64
		requests, maxBatch int
	}
	good := args{batch: 2, continuous: true, rate: defaultRate}
	runArgs := func(a args) error {
		return run("PAPI", "LLaMA-65B", "general-qa", a.batch, 1, 42, 0,
			a.continuous, a.rate, a.requests, a.maxBatch, false)
	}
	for _, tc := range []struct {
		name string
		set  func(a *args)
		want string
	}{
		{"batch negative", func(a *args) { a.batch = -5 }, "-batch"},
		{"batch zero", func(a *args) { a.batch = 0 }, "-batch"},
		{"static batch zero", func(a *args) { a.batch, a.continuous = 0, false }, "-batch"},
		{"rate zero", func(a *args) { a.rate = 0 }, "-rate"},
		{"rate negative", func(a *args) { a.rate = -3 }, "-rate"},
		{"rate NaN", func(a *args) { a.rate = math.NaN() }, "-rate"},
		{"rate infinite", func(a *args) { a.rate = math.Inf(1) }, "-rate"},
		{"requests negative", func(a *args) { a.requests = -1 }, "-requests"},
		{"maxbatch negative", func(a *args) { a.maxBatch = -1 }, "-maxbatch"},
		{"rate without continuous", func(a *args) { a.continuous, a.rate = false, 5 }, "-rate"},
		{"zero rate without continuous", func(a *args) { a.continuous, a.rate = false, 0 }, "-rate"},
		{"requests without continuous", func(a *args) { a.continuous, a.requests = false, 8 }, "-requests"},
		{"maxbatch without continuous", func(a *args) { a.continuous, a.maxBatch = false, 4 }, "-maxbatch"},
	} {
		a := good
		tc.set(&a)
		err := runArgs(a)
		if err == nil {
			t.Errorf("%s: run accepted the bad value", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	if err := runArgs(good); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	if err := runArgs(args{batch: 2, rate: defaultRate}); err != nil {
		t.Fatalf("static batch rejected the default -rate: %v", err)
	}
}
