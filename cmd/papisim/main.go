// Command papisim runs one end-to-end LLM serving simulation on a chosen
// system design and prints latency, energy and scheduler activity.
//
// Examples:
//
//	papisim -design PAPI -model LLaMA-65B -dataset creative-writing -batch 16 -spec 4
//	papisim -design AttAcc-only -model "GPT-3 175B" -batch 64
//	papisim -design PAPI -continuous -rate 20 -requests 64 -maxbatch 16
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// defaultRate is -rate's default; any other value asks for -continuous.
const defaultRate = 10

func main() {
	var (
		design     = flag.String("design", "PAPI", `system design: "PAPI", "A100+AttAcc", "A100+HBM-PIM", "AttAcc-only", "PIM-only PAPI"`)
		modelName  = flag.String("model", "LLaMA-65B", `model: "OPT-30B", "LLaMA-65B", "GPT-3 66B", "GPT-3 175B"`)
		dataset    = flag.String("dataset", "creative-writing", `workload: "creative-writing" or "general-qa"`)
		batch      = flag.Int("batch", 16, "batch size (initial RLP)")
		spec       = flag.Int("spec", 1, "speculation length (TLP); 1 disables speculative decoding")
		seed       = flag.Int64("seed", 42, "workload and acceptance seed")
		alpha      = flag.Float64("alpha", 0, "override PAPI's α threshold (0 = calibrated default)")
		continuous = flag.Bool("continuous", false, "use mixed continuous batching over Poisson arrivals")
		rate       = flag.Float64("rate", defaultRate, "arrival rate (requests/s) for -continuous")
		requests   = flag.Int("requests", 0, "request count for -continuous (default 4×batch)")
		maxBatch   = flag.Int("maxbatch", 0, "admission cap for -continuous (default = batch)")
		trace      = flag.Bool("trace", false, "print the per-iteration scheduling trace")
	)
	flag.Parse()

	if err := run(*design, *modelName, *dataset, *batch, *spec, *seed, *alpha,
		*continuous, *rate, *requests, *maxBatch, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "papisim:", err)
		os.Exit(1)
	}
}

func run(designName, modelName, dataset string, batch, spec int, seed int64, alpha float64,
	continuous bool, rate float64, requests, maxBatch int, trace bool) error {
	if batch < 1 {
		return fmt.Errorf("-batch %d must be ≥ 1", batch)
	}
	if continuous && (!(rate > 0) || math.IsInf(rate, 1)) {
		return fmt.Errorf("-rate %g must be a finite arrival rate > 0", rate)
	}
	if requests < 0 {
		return fmt.Errorf("-requests %d is negative (0 = 4×batch)", requests)
	}
	if maxBatch < 0 {
		return fmt.Errorf("-maxbatch %d is negative (0 = batch)", maxBatch)
	}
	if !continuous {
		switch {
		case rate != defaultRate:
			return fmt.Errorf("-rate only applies with -continuous")
		case requests != 0:
			return fmt.Errorf("-requests only applies with -continuous")
		case maxBatch != 0:
			return fmt.Errorf("-maxbatch only applies with -continuous")
		}
	}
	sysSpec, err := design.ByName(designName)
	if err != nil {
		return err
	}
	if alpha != 0 && sysSpec.Policy.Kind != design.PolicyDynamic {
		return fmt.Errorf("-alpha %v: design %s places FC statically and has no α", alpha, sysSpec.Name)
	}
	// Only α can make a registry design fail to build.
	sysSpec.Policy.Alpha = alpha
	sys, err := sysSpec.Build()
	if err != nil {
		return fmt.Errorf("-alpha %v: %w", alpha, err)
	}
	cfg, err := model.ByName(modelName)
	if err != nil {
		return err
	}
	ds, err := workload.ByName(dataset)
	if err != nil {
		return err
	}

	opt := serving.DefaultOptions(spec)
	opt.Seed = seed
	eng, err := serving.New(sys, cfg, opt)
	if err != nil {
		return err
	}

	var res serving.Result
	if continuous {
		n := requests
		if n == 0 {
			n = 4 * batch
		}
		mb := maxBatch
		if mb == 0 {
			mb = batch
		}
		res, err = eng.RunContinuous(ds.Poisson(n, rate, seed), mb)
	} else {
		res, err = eng.RunBatch(ds.Generate(batch, seed))
	}
	if err != nil {
		return err
	}

	fmt.Printf("design        %s\n", res.System)
	fmt.Printf("model         %s\n", res.Model)
	fmt.Printf("workload      %s, batch %d, speculation length %d\n", dataset, batch, spec)
	fmt.Printf("prefill       %v\n", res.PrefillTime)
	fmt.Printf("decode        %v over %d iterations\n", res.DecodeTime, res.Iterations)
	if res.IdleTime > 0 {
		fmt.Printf("idle          %v (waiting for arrivals)\n", res.IdleTime)
	}
	fmt.Printf("total         %v\n", res.TotalTime())
	fmt.Printf("tokens        %d (%v per token)\n", res.Tokens, res.TimePerToken())
	fmt.Printf("breakdown     FC %v | attention %v | communication %v | other %v\n",
		res.Breakdown.FC, res.Breakdown.Attention, res.Breakdown.Communication, res.Breakdown.Other)
	fmt.Printf("reschedules   %d\n", res.Reschedules)
	if res.Throttled {
		fmt.Printf("note          PIM power governor throttled execution to the 116 W budget\n")
	}
	fmt.Printf("energy        %v total\n", res.Energy.Total())
	for _, c := range res.Energy.Components() {
		fmt.Printf("  %-13s %v (%.1f%%)\n", c, res.Energy.Get(c), 100*res.Energy.Share(c))
	}
	if trace {
		fmt.Println("\niteration trace (capped):")
		for _, it := range res.IterStats {
			fmt.Printf("  iter %4d  RLP %3d  TLP %d  AI≈%3d  FC→%-6s  %v\n",
				it.Index, it.RLP, it.TLP, it.RLP*it.TLP, it.Placement, it.Time)
		}
	}
	return nil
}
