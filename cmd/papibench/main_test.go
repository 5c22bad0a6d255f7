package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunRejectsBadFlags: every flag combination no run can mean returns an
// error before any figure runs or any profile is written — never a panic,
// never a silently ignored flag.
func TestRunRejectsBadFlags(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	missing := filepath.Join(t.TempDir(), "no-such-plan.json")
	type args struct {
		which, design, faults string
		list                  bool
		cpuprofile            string
	}
	for _, tc := range []struct {
		name string
		args args
	}{
		{"unknown figure", args{which: "no-such-figure"}},
		{"list-designs with figure", args{list: true, which: "8"}},
		{"list-designs with cpuprofile", args{list: true, cpuprofile: cpu}},
		{"design with figure", args{design: "PAPI", which: "8"}},
		{"design with cpuprofile", args{design: "PAPI", cpuprofile: cpu}},
		{"faults with figure", args{faults: missing, which: "8"}},
		{"faults with cpuprofile", args{faults: missing, cpuprofile: cpu}},
		{"list-designs and design", args{list: true, design: "PAPI"}},
		{"design and faults", args{design: "PAPI", faults: missing}},
		{"list-designs and faults", args{list: true, faults: missing}},
		{"unknown design", args{design: "no-such-design"}},
		{"missing faults file", args{faults: missing}},
	} {
		a := tc.args
		if err := run(a.which, a.design, a.faults, a.list, a.cpuprofile, ""); err == nil {
			t.Errorf("%s: run accepted the flags", tc.name)
		}
	}
	if _, err := os.Stat(cpu); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote a CPU profile (stat: %v)", err)
	}
}
