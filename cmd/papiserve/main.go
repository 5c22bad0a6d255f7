// Command papiserve runs fleet-level serving simulations: N replica engines
// consume a request stream behind a routing policy, reporting aggregate
// throughput, energy, tail latency percentiles, and SLO attainment. The
// fleet's hardware comes from the named design registry or from declarative
// spec files (-design takes names or .json paths; a comma-separated list
// provisions a mixed-design fleet whose replicas target the list's design
// ratio — repeat an entry to weight it). The
// stream comes from a flat Poisson rate, a named workload scenario (bursty,
// diurnal, closed-loop multi-turn, long-context), or a previously saved
// trace; any run's realised arrivals can be exported as a byte-stable trace
// for replay.
//
// Examples:
//
//	papiserve -design PAPI -replicas 4 -router least-outstanding -rate 40 -requests 128
//	papiserve -design A100+AttAcc -replicas 2 -router kv-headroom -slo 12
//	papiserve -design "PAPI,A100+AttAcc" -replicas 4 -rate 30
//	papiserve -design examples/designs/papi-wide.json -replicas 2
//	papiserve -list-designs
//	papiserve -sweep 2,5,10,20,40,80 -replicas 2 -requests 64
//	papiserve -scenario burst-creative -replicas 2 -requests 48
//	papiserve -scenario chat-multiturn -save-trace chat.json
//	papiserve -trace chat.json -design "PIM-only PAPI"
//	papiserve -scenario tiered-diurnal -autoscale 1:4 -requests 240
//	papiserve -rate 30 -classes 0.4 -replicas 2 -requests 96
//	papiserve -scenario chat-multiturn -kv-blocks 32 -kv-cold 4 -requests 48
//	papiserve -faults examples/resilience/crash-peak.json -autoscale 1:4 -retries 2
//	papiserve -timeout 5 -retries 1 -rate 40 -requests 96
//	papiserve -scenario tiered-diurnal -requests 100000
//	papiserve -rate 50 -requests 5000 -checkpoint day.json
//	papiserve -scenario tiered-diurnal -requests 100000 -cpuprofile cpu.out
//	papiserve -rate 40 -requests 10000 -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/experiments"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func main() {
	o := defaultOptions()
	flag.StringVar(&o.design, "design", o.design, `fleet design(s): registry names ("PAPI", "A100+AttAcc", "A100+HBM-PIM", "AttAcc-only", "PIM-only PAPI") or spec .json files; a comma-separated list runs a mixed fleet`)
	listDes := flag.Bool("list-designs", false, "list the named designs in the registry and exit")
	flag.StringVar(&o.modelName, "model", o.modelName, `model: "OPT-30B", "LLaMA-65B", "GPT-3 66B", "GPT-3 175B"`)
	flag.StringVar(&o.dataset, "dataset", o.dataset, `workload: "creative-writing", "general-qa", "long-context"`)
	flag.IntVar(&o.replicas, "replicas", o.replicas, "replica engine count")
	flag.StringVar(&o.routerName, "router", o.routerName, `routing policy: "round-robin", "least-outstanding", "kv-headroom"`)
	flag.Float64Var(&o.rate, "rate", o.rate, "offered arrival rate (requests/s)")
	flag.IntVar(&o.requests, "requests", o.requests, "request count in the stream (conversation count for closed-loop scenarios)")
	flag.IntVar(&o.maxBatch, "maxbatch", o.maxBatch, "per-replica continuous-batching admission cap")
	flag.IntVar(&o.spec, "spec", o.spec, "speculation length (TLP); 1 disables speculative decoding")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload and acceptance seed")
	flag.Float64Var(&o.sloMS, "slo", o.sloMS, "TPOT SLO in milliseconds (0 = unbounded)")
	flag.Float64Var(&o.target, "target", o.target, "attainment target in [0, 1] for -sweep capacity headlines")
	flag.StringVar(&o.sweep, "sweep", "", "comma-separated QPS ladder: run the capacity sweep over all designs instead of one fleet")
	flag.StringVar(&o.scenario, "scenario", "", "named workload scenario (see docs/SCENARIOS.md); it brings its own arrivals, so -dataset, -rate and -classes do not apply")
	flag.StringVar(&o.traceIn, "trace", "", "replay a saved trace file instead of generating arrivals; -dataset, -rate, -requests and -classes do not apply")
	flag.StringVar(&o.traceOut, "save-trace", "", "export the run's realised arrival stream as a trace file")
	flag.StringVar(&o.autoscale, "autoscale", "", `elastic fleet bounds "min:max": scale replicas with load instead of static provisioning (-replicas is the initial size)`)
	flag.Float64Var(&o.classes, "classes", 0, "fraction of generated requests tagged batch-class (preemptible); scenarios and traces carry their own classes")
	flag.IntVar(&o.kvBlocks, "kv-blocks", 0, "block-level KV cache: tokens per block, prefix sharing on (0 = plain byte-ledger accounting)")
	flag.Float64Var(&o.kvCold, "kv-cold", o.kvCold, "with -kv-blocks: cold-tier capacity as a multiple of the hot attention pool (negative disables the tier)")
	flag.StringVar(&o.faults, "faults", "", "inject a fault plan .json (crashes, stragglers, brownouts; see docs/RESILIENCE.md)")
	flag.IntVar(&o.retries, "retries", o.retries, "bounded failover with -faults or -timeout: retry a request lost to a crash or timeout at most this many times")
	flag.Float64Var(&o.timeoutS, "timeout", 0, "per-attempt request timeout in seconds (0 = none); timed-out attempts cancel and retry under -retries")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "merge this run's mergeable fleet snapshot into the named .json (created if absent), so long runs split across invocations")
	flag.BoolVar(&o.retainRequests, "retain-requests", false, "keep every per-request metrics record (FleetResult.Requests) and each replica's per-iteration trace; off by default so large runs stay constant-memory")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *listDes {
		for _, spec := range design.Registry() {
			fmt.Printf("%-14s %s\n", spec.Name, spec.Description)
		}
		return
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "papiserve:", err)
		os.Exit(1)
	}
}

type options struct {
	design, modelName, dataset, routerName, sweep, scenario, traceIn, traceOut string
	autoscale, faults, checkpoint, cpuProfile, memProfile                      string

	replicas, requests, maxBatch, spec, kvBlocks, retries int
	seed                                                  int64
	rate, sloMS, target, classes, kvCold, timeoutS        float64
	retainRequests                                        bool
}

// defaultOptions holds the flag defaults; every flag left out of it
// defaults to its zero value.
func defaultOptions() options {
	return options{
		design: "PAPI", modelName: "LLaMA-65B", dataset: "general-qa",
		routerName: "least-outstanding", replicas: 2, requests: 64, maxBatch: 16,
		spec: 1, seed: 42, rate: 20, sloMS: 12, target: 0.9, kvCold: 4,
		retries: 2,
	}
}

// run brackets the simulation with the optional pprof captures so the
// fleet-scale hot path (decode windows, barrier phases, the routing
// signals) can be profiled exactly as papibench profiles a single engine.
func run(o options) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := serve(o); err != nil {
		return err
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		// Settle the heap first so the profile shows live retention, not
		// garbage the next collection would have reclaimed anyway.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func serve(o options) error {
	cfg, err := model.ByName(o.modelName)
	if err != nil {
		return err
	}
	if o.requests < 1 {
		return fmt.Errorf("-requests %d must be ≥ 1", o.requests)
	}
	if o.replicas < 1 {
		return fmt.Errorf("-replicas %d must be ≥ 1", o.replicas)
	}
	if o.maxBatch < 1 {
		return fmt.Errorf("-maxbatch %d must be ≥ 1", o.maxBatch)
	}
	if !(o.sloMS >= 0) || math.IsInf(o.sloMS, 1) {
		return fmt.Errorf("-slo %g must be finite and ≥ 0 (0 = unbounded)", o.sloMS)
	}
	slo := workload.SLO{TokenLatency: units.Milliseconds(o.sloMS)}
	if !(o.classes >= 0 && o.classes <= 1) {
		return fmt.Errorf("-classes %g outside [0, 1]", o.classes)
	}
	if !(o.target >= 0 && o.target <= 1) {
		return fmt.Errorf("-target %g outside [0, 1]", o.target)
	}
	d := defaultOptions()
	if o.kvBlocks == 0 && o.kvCold != d.kvCold {
		return fmt.Errorf("-kv-cold only applies with -kv-blocks")
	}

	if o.sweep != "" {
		if err := sweepConflicts(o); err != nil {
			return err
		}
		ds, err := workload.ByName(o.dataset)
		if err != nil {
			return err
		}
		rates, err := parseRates(o.sweep)
		if err != nil {
			return err
		}
		res := experiments.CapacitySweep(experiments.CapacitySystems(), cfg, ds,
			o.replicas, o.requests, o.maxBatch, rates, slo, o.target)
		fmt.Print(res)
		return nil
	}
	if o.target != d.target {
		return fmt.Errorf("-target only applies to -sweep")
	}
	if o.retries != d.retries && o.faults == "" && o.timeoutS == 0 {
		return fmt.Errorf("-retries only applies with -faults or -timeout")
	}
	if o.scenario != "" && o.traceIn != "" {
		return fmt.Errorf("-scenario and -trace are mutually exclusive")
	}
	if err := streamConflicts(o); err != nil {
		return err
	}
	if o.scenario == "" && o.traceIn == "" && !(o.rate > 0 && !math.IsInf(o.rate, 1)) {
		return fmt.Errorf("-rate %g must be a finite arrival rate > 0", o.rate)
	}

	rt, err := cluster.RouterByName(o.routerName)
	if err != nil {
		return err
	}
	var auto *cluster.AutoscaleOptions
	if o.autoscale != "" {
		min, max, err := parseBounds(o.autoscale)
		if err != nil {
			return err
		}
		auto = cluster.DefaultAutoscale(min, max, slo)
	}
	specs, err := resolveDesigns(o.design)
	if err != nil {
		return err
	}
	if o.kvBlocks < 0 {
		return fmt.Errorf("-kv-blocks %d is negative", o.kvBlocks)
	}
	opt := serving.DefaultOptions(o.spec)
	opt.Seed = o.seed
	if o.kvBlocks > 0 {
		opt.KV = &kv.Options{BlockTokens: o.kvBlocks, Sharing: true, ColdFactor: o.kvCold}
		if err := opt.KV.Validate(); err != nil {
			return fmt.Errorf("-kv-cold: %w", err)
		}
	}
	if !(o.timeoutS >= 0) || math.IsInf(o.timeoutS, 1) {
		return fmt.Errorf("-timeout %g must be finite and ≥ 0 (0 = none)", o.timeoutS)
	}
	copt := cluster.Options{
		Replicas:  o.replicas,
		MaxBatch:  o.maxBatch,
		Router:    rt,
		Serving:   opt,
		Autoscale: auto,
		Retries:   o.retries,
		Timeout:   units.Seconds(o.timeoutS),
		// Per-request records and the realised stream are opt-in: the
		// streaming aggregate already carries the digests, so by default a
		// run's memory stays constant in stream length.
		RetainRequests: o.retainRequests,
		RetainStream:   o.traceOut != "",
	}
	if o.faults != "" {
		data, err := os.ReadFile(o.faults)
		if err != nil {
			return err
		}
		plan, err := faults.ImportPlan(data)
		if err != nil {
			return err
		}
		// A plan without a fault arms no failure machinery, so without a
		// -timeout nothing can fail for -retries to retry.
		if plan.Empty() && o.timeoutS == 0 && o.retries != d.retries {
			return fmt.Errorf("-retries only applies with -faults or -timeout: fault plan %q holds no fault", plan.Name)
		}
		fmt.Printf("injecting fault plan %q (%d faults)\n", plan.Name, len(plan.Faults))
		copt.Faults = &plan
	}
	if copt.Faults != nil || copt.Timeout > 0 {
		// Deterministic exponential backoff between failover attempts; the
		// fixed base keeps CLI runs reproducible without one more knob.
		copt.RetryBackoff = units.Milliseconds(50)
	}
	c, err := cluster.NewFromSpecs(specs, cfg, copt)
	if err != nil {
		return err
	}

	var f *cluster.FleetResult
	traceName, traceScenario := "papiserve", ""
	switch {
	case o.traceIn != "":
		data, err := os.ReadFile(o.traceIn)
		if err != nil {
			return err
		}
		tr, err := workload.ImportTrace(data)
		if err != nil {
			return err
		}
		fmt.Printf("replaying trace %q (%d requests, scenario %q)\n", tr.Name, len(tr.Requests), tr.Scenario)
		traceName, traceScenario = tr.Name, tr.Scenario
		f, err = c.Run(tr.Workload())
		if err != nil {
			return err
		}
	case o.scenario != "":
		sc, err := workload.ScenarioByName(o.scenario)
		if err != nil {
			return err
		}
		traceName, traceScenario = sc.Name, sc.Name
		if sc.ClosedLoop() {
			plan, err := sc.Plan(o.requests, o.seed)
			if err != nil {
				return err
			}
			fmt.Printf("scenario %q: %d conversations, %d turns\n",
				sc.Name, len(plan), workload.TotalTurns(plan))
			f, err = c.RunPlan(plan)
			if err != nil {
				return err
			}
		} else {
			reqs, err := sc.Requests(o.requests, o.seed)
			if err != nil {
				return err
			}
			f, err = c.Run(reqs)
			if err != nil {
				return err
			}
		}
	default:
		ds, err := workload.ByName(o.dataset)
		if err != nil {
			return err
		}
		reqs := ds.Poisson(o.requests, o.rate, o.seed)
		if o.classes > 0 {
			workload.AssignClasses(reqs, o.classes, o.seed+1)
		}
		f, err = c.Run(reqs)
		if err != nil {
			return err
		}
	}

	fmt.Print(f)
	if o.sloMS > 0 {
		fmt.Printf("SLO attainment (TPOT ≤ %v): %.1f%%\n", slo.TokenLatency, 100*f.Attainment(slo))
		for _, d := range f.PerDesign {
			if d.Requests == 0 {
				fmt.Printf("  %-14s n/a (served no requests)\n", d.Design)
				continue
			}
			fmt.Printf("  %-14s %.1f%%\n", d.Design, 100*d.Attainment(slo))
		}
	}
	if o.traceOut != "" {
		tr := workload.NewTrace(traceName, traceScenario, o.seed, f.Stream)
		data, err := tr.Export()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("saved %d realised arrivals to %s\n", len(tr.Requests), o.traceOut)
	}
	if o.checkpoint != "" {
		if err := mergeCheckpoint(o.checkpoint, f); err != nil {
			return err
		}
	}
	return nil
}

// sweepConflicts rejects every flag a -sweep run would otherwise ignore.
// The capacity sweep runs its own fixed fleet: the comparison design set
// on a generated Poisson ladder, least-outstanding routing, TLP 1, seed
// experiments.Seed, the byte ledger, no faults, streaming metrics and no
// checkpoint. Accepting a flag that asks for anything else
// would attribute the table to a configuration it never ran.
func sweepConflicts(o options) error {
	d := defaultOptions()
	if bad := setFlags([]flagSet{
		{"-design", o.design != d.design},
		{"-router", o.routerName != d.routerName},
		{"-rate", o.rate != d.rate},
		{"-spec", o.spec != d.spec},
		{"-seed", o.seed != experiments.Seed},
		{"-scenario", o.scenario != ""},
		{"-trace", o.traceIn != ""},
		{"-save-trace", o.traceOut != ""},
		{"-autoscale", o.autoscale != ""},
		{"-classes", o.classes != 0},
		{"-kv-blocks", o.kvBlocks != 0},
		{"-faults", o.faults != ""},
		{"-timeout", o.timeoutS != 0},
		{"-retries", o.retries != d.retries},
		{"-checkpoint", o.checkpoint != ""},
		{"-retain-requests", o.retainRequests},
	}); bad != "" {
		return fmt.Errorf("-sweep runs the fixed capacity comparison and cannot be combined with %s", bad)
	}
	return nil
}

// streamConflicts rejects every flag the chosen stream source would
// otherwise ignore. A scenario brings its own arrival process, request mix
// and classes; a trace replays a saved stream whole, its length included.
// Only a generated Poisson stream reads -dataset, -rate and -classes.
func streamConflicts(o options) error {
	d := defaultOptions()
	generated := []flagSet{
		{"-dataset", o.dataset != d.dataset},
		{"-rate", o.rate != d.rate},
		{"-classes", o.classes != 0},
	}
	switch {
	case o.traceIn != "":
		if bad := setFlags(append(generated, flagSet{"-requests", o.requests != d.requests})); bad != "" {
			return fmt.Errorf("-trace replays a saved stream and cannot be combined with %s", bad)
		}
	case o.scenario != "":
		if bad := setFlags(generated); bad != "" {
			return fmt.Errorf("-scenario generates its own stream and cannot be combined with %s", bad)
		}
	}
	return nil
}

// flagSet is one flag a run mode would ignore, and whether it was given.
type flagSet struct {
	name string
	set  bool
}

// setFlags lists the given flags, comma-separated, or returns "" when none
// was given.
func setFlags(flags []flagSet) string {
	var names []string
	for _, f := range flags {
		if f.set {
			names = append(names, f.name)
		}
	}
	return strings.Join(names, ", ")
}

// mergeCheckpoint folds the run's mergeable snapshot into the named file:
// absent, the file becomes this run's checkpoint; present, it accumulates —
// so a long run split across invocations keeps one merged ledger and digest.
func mergeCheckpoint(path string, f *cluster.FleetResult) error {
	cp := f.Checkpoint()
	if data, err := os.ReadFile(path); err == nil {
		prior, err := cluster.ImportCheckpoint(data)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", path, err)
		}
		if err := prior.Merge(cp); err != nil {
			return err
		}
		cp = prior
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := cp.Export()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpoint %s now merges %d segment(s):\n%s", path, cp.Runs, cp)
	return nil
}

// resolveDesigns turns the -design argument into the fleet's design list:
// comma-separated registry names and/or spec .json files.
func resolveDesigns(arg string) ([]design.Spec, error) {
	var specs []design.Spec
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-design has an empty entry in %q", arg)
		}
		spec, err := design.Resolve(part)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func parseBounds(s string) (min, max int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf(`-autoscale wants "min:max", got %q`, s)
	}
	min, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err == nil {
		max, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	}
	if err != nil || min < 1 || max < min {
		return 0, 0, fmt.Errorf(`-autoscale wants "min:max" with 1 ≤ min ≤ max, got %q`, s)
	}
	return min, max, nil
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("invalid sweep rate %q", part)
		}
		rates = append(rates, v)
	}
	return rates, nil
}
