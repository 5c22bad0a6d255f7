// Command perfbench is the simulator's benchmark. It runs one of four seeded
// workloads through the public papi facade, measures what the run costs the
// host (wall time, CPU, memory, heap allocation), checks the simulated
// outputs, and prints one JSON result as the last line of standard output:
//
//	perfbench --workload fleet-scale --seed 1 --seconds 28 --trace 0
//
// A run repeats one unit of work — the workload's whole input, generated
// once from the seed — until --seconds have passed; setup time is the
// shortest over units, the rest are medians over units (README.md says why). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
// untraced and traced units on the same inputs, runs the serving and sketch
// drills on the first traced unit, and reports per-layer metrics. --workload
// all runs every workload in turn, each in its own process. README.md
// records why each workload exists and the baseline numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// defaultSeed is the seed the pinned output digests were taken at.
const defaultSeed = 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to keep repeating units")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "where a traced run writes its spans (JSON lines); default .bench_build/spans/<workload>.jsonl, \"-\" disables")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = ".bench_build/spans/" + w.name + ".jsonl"
	}
	rep, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// runAll runs every workload, one child process each, so that each reports
// its own peak RSS. The children inherit every flag but --workload.
func runAll() int {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "--"+f.Name, f.Value.String())
		}
	})
	status := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(os.Args[0], append([]string{"--workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: the JSON object the last line of output holds,
// plus the lines printed for a reader above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	seed     int64
	units    int
	notes    []string
}

func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.notes = append(r.notes, fmt.Sprintf("%s is not finite; reported as 0", name))
		r.Correct = false
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "%s seed %d: %d units, %d requests sent, %d failed\n",
		r.workload, r.seed, r.units, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	data, err := json.Marshal(r)
	if err != nil {
		// Every value went through set, which keeps them finite.
		panic(err)
	}
	fmt.Fprintln(out, string(data))
}
