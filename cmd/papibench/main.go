// Command papibench regenerates every figure of the paper's evaluation
// section and prints its tables; the golden fixtures under
// internal/experiments/testdata/golden/ pin their numbers.
//
//	papibench                      # all figures and ablations
//	papibench -figure 8            # one figure
//	papibench -figure dse          # the design-space exploration grid
//	papibench -list-designs        # the named hardware designs
//	papibench -design PAPI         # inspect one design (name or spec .json)
//	papibench -faults plan.json    # validate and summarise a fault plan
//	papibench -cpuprofile cpu.out  # write a pprof CPU profile
//	papibench -memprofile mem.out  # write a pprof heap profile
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/experiments"
	"github.com/papi-sim/papi/internal/faults"
)

func main() {
	which := flag.String("figure", "", "run a single figure (2,3,4,6,7e,7p,8,9,10,11,12,ablation-*,capacity,scenarios,elasticity,dse,kvcache,resilience,scale)")
	designArg := flag.String("design", "", "inspect one hardware design (registry name or spec .json file): validate, print its spec and derived capacities, then exit")
	listDesigns := flag.Bool("list-designs", false, "list the named hardware designs in the registry and exit")
	faultsArg := flag.String("faults", "", "inspect one fault plan .json: validate, print its schedule, then exit (see docs/RESILIENCE.md)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	// run's defers terminate the CPU profile before the process exits on
	// any error path, so a failed run never leaves a truncated profile.
	if err := run(*which, *designArg, *faultsArg, *listDesigns, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "papibench: %v\n", err)
		os.Exit(1)
	}
}

// printDesigns lists the registry.
func printDesigns() {
	for _, spec := range design.Registry() {
		fmt.Printf("%-14s %s\n", spec.Name, spec.Description)
	}
}

// inspectDesign resolves a design argument (registry name or spec file),
// builds it, and prints the spec alongside the derived hardware quantities.
func inspectDesign(arg string) error {
	spec, err := design.Resolve(arg)
	if err != nil {
		return err
	}
	sys, err := spec.Build()
	if err != nil {
		return err
	}
	data, err := spec.Export()
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	fmt.Printf("weight capacity %v · KV capacity %v · attention pool %d × %s (%v stream)\n",
		sys.WeightCapacity(), sys.KVCapacity(),
		sys.AttnPIM.Count, sys.AttnPIM.Stack.Config, sys.AttnPIM.StreamBW())
	fmt.Printf("attention fabric %s (%v) · policy %s · prefill on GPU: %v\n",
		sys.AttnLink.Name, sys.AttnLink.BW, sys.Policy.Name(), sys.PrefillOnGPU)
	return nil
}

// inspectFaults loads a fault plan, validates it, and prints its schedule in
// event order — the dry-run companion to `papiserve -faults`, so a plan's
// shape can be checked before spending a fleet run on it.
func inspectFaults(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, err := faults.ImportPlan(data)
	if err != nil {
		return err
	}
	fmt.Printf("plan %q: %d faults", plan.Name, len(plan.Faults))
	if plan.Seed != 0 {
		fmt.Printf(" (generator seed %d)", plan.Seed)
	}
	fmt.Println()
	for _, f := range plan.Faults {
		switch {
		case !f.Window():
			fmt.Printf("  %8.3fs  crash      replica %d (permanent)\n", f.At, f.Replica)
		case f.Kind == faults.KindStraggler:
			fmt.Printf("  %8.3fs  straggler  replica %d ×%.2f for %.3fs\n", f.At, f.Replica, f.Factor, f.Duration)
		default:
			fmt.Printf("  %8.3fs  brownout   fleet-wide ×%.2f for %.3fs\n", f.At, f.Factor, f.Duration)
		}
	}
	return nil
}

func run(which, designArg, faultsArg string, listDesigns bool, cpuprofile, memprofile string) error {
	if listDesigns || designArg != "" || faultsArg != "" {
		// Inspection modes run no figures; any combined request they would
		// silently drop is rejected instead.
		if which != "" || cpuprofile != "" || memprofile != "" {
			return fmt.Errorf("-design/-list-designs/-faults cannot be combined with -figure, -cpuprofile, or -memprofile")
		}
		modes := 0
		for _, on := range []bool{listDesigns, designArg != "", faultsArg != ""} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			return fmt.Errorf("-design, -list-designs, and -faults are mutually exclusive")
		}
		if listDesigns {
			printDesigns()
			return nil
		}
		if faultsArg != "" {
			return inspectFaults(faultsArg)
		}
		return inspectDesign(designArg)
	}

	// Validate the figure selection before profiling starts.
	if which != "" {
		if _, err := experiments.FigureByID(which); err != nil {
			return fmt.Errorf("unknown figure %q", which)
		}
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	for _, f := range experiments.Figures() {
		if which != "" && f.ID != which {
			continue
		}
		fmt.Printf("================ figure %s ================\n", f.ID)
		out, err := f.Run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		fmt.Println(out.String())
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
