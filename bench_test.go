package papi

// One benchmark per figure of the paper's evaluation (there are no numbered
// tables; Figs. 1 and 5 are diagrams). Each benchmark regenerates its figure
// and reports the figure's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The measured values are pinned in the
// golden fixtures under internal/experiments/testdata/golden/, and the
// shape tests in internal/experiments check them against the paper's.

import (
	"runtime"
	"testing"

	"github.com/papi-sim/papi/internal/experiments"
	"github.com/papi-sim/papi/internal/kv"
)

func BenchmarkFig02Roofline(b *testing.B) {
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2()
	}
	b.ReportMetric(r.RidgeAI, "ridge-FLOP/B")
}

func BenchmarkFig03RLPDecay(b *testing.B) {
	var r experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(64)
	}
	b.ReportMetric(float64(r.IterationsPerRequest[0]), "longest-request-iters")
}

func BenchmarkFig04FCLatency(b *testing.B) {
	var r experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4()
	}
	b.ReportMetric(float64(r.CrossoverBatch), "a100-overtakes-attacc-batch")
}

func BenchmarkFig06AIEstimate(b *testing.B) {
	var r experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6()
	}
	b.ReportMetric(100*r.MaxRelError, "max-rel-err-%")
}

func BenchmarkFig07Energy(b *testing.B) {
	var r experiments.Fig7EnergyResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7Energy()
	}
	b.ReportMetric(100*r.NoReuse[0], "dram-share-noreuse-%")
	b.ReportMetric(100*r.Reuse64[0], "dram-share-reuse64-%")
}

func BenchmarkFig07Power(b *testing.B) {
	var r experiments.Fig7PowerResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7Power()
	}
	b.ReportMetric(r.MinReuse4P1B, "4P1B-min-reuse")
	b.ReportMetric(r.Rows[0].FourP1B, "4P1B-noreuse-W")
}

func BenchmarkFig08EndToEnd(b *testing.B) {
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8()
	}
	b.ReportMetric(r.PAPIvsA100AttAcc, "papi-vs-a100attacc-x")
	b.ReportMetric(r.PAPIvsHBMPIM, "papi-vs-hbmpim-x")
	b.ReportMetric(r.PAPIvsAttAccOnly, "papi-vs-attacconly-x")
	b.ReportMetric(r.PAPIEnergyVsBase, "papi-energy-eff-x")
}

func BenchmarkFig09GeneralQA(b *testing.B) {
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9()
	}
	b.ReportMetric(r.PAPIvsA100AttAcc, "papi-vs-a100attacc-x")
	b.ReportMetric(r.PAPIvsAttAccOnly, "papi-vs-attacconly-x")
	b.ReportMetric(r.PAPIEnergyVsBase, "papi-energy-eff-x")
}

func BenchmarkFig10Sensitivity(b *testing.B) {
	var r experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10()
	}
	b.ReportMetric(r.SpecAvgVsBase, "tlp-avg-vs-base-x")
	b.ReportMetric(r.SpecAvgVsAttAcc, "tlp-avg-vs-attacconly-x")
}

func BenchmarkFig11PIMOnly(b *testing.B) {
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11()
	}
	b.ReportMetric(r.Average, "avg-speedup-x")
	b.ReportMetric(r.Lowest, "b4s1-x")
	b.ReportMetric(r.Highest, "b64s4-x")
}

func BenchmarkFig12Breakdown(b *testing.B) {
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12()
	}
	b.ReportMetric(r.FCSpeedup, "fc-speedup-x")
	b.ReportMetric(r.AttentionSlowdown, "attn-slowdown-x")
	b.ReportMetric(100*r.PAPICommShare, "comm-share-%")
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationAlpha(b *testing.B) {
	var r experiments.AlphaSweepResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationAlpha()
	}
	b.ReportMetric(r.BestAlpha, "best-alpha")
	b.ReportMetric(r.Calibrated, "calibrated-alpha")
}

func BenchmarkAblationHybridPIM(b *testing.B) {
	var r experiments.HybridPIMResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationHybridPIM()
	}
	b.ReportMetric(r.Average, "hybrid-speedup-x")
}

func BenchmarkAblationDynamicVsStatic(b *testing.B) {
	var r experiments.DynamicVsStaticResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationDynamicVsStatic()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.StaticPUMS/r.DynamicMS, "vs-always-pu-x")
	b.ReportMetric(r.StaticPIMMS/r.DynamicMS, "vs-always-pim-x")
}

func BenchmarkAblationBatching(b *testing.B) {
	var r experiments.BatchingResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationBatching()
	}
	b.ReportMetric(r.Speedup, "continuous-speedup-x")
}

func BenchmarkAblationSchedulingCost(b *testing.B) {
	var r experiments.SchedulingCostResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSchedulingCost()
	}
	b.ReportMetric(r.SlowdownAt50ms, "slowdown-at-50ms-x")
}

// Microbenchmarks of the substrates themselves.

func BenchmarkServingIteration(b *testing.B) {
	eng, err := NewEngine(NewPAPI(), LLaMA65B(), DefaultOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	reqs := CreativeWriting().Generate(16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatch(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep-runner benchmarks: the goroutine-parallel (system, rate) fan-out
// against the serial path on the default Capacity grid. Both produce
// identical results (pinned by the experiments tests); the parallel runner
// wins wall-clock on any multi-core machine.

func benchCapacitySweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		experiments.CapacitySweepWorkers(experiments.CapacitySystems(), LLaMA65B(), GeneralQA(),
			2, 64, 16, []float64{2, 5, 10, 20, 40, 80},
			SLO{TokenLatency: Seconds(0.012)}, 0.9, workers)
	}
}

func BenchmarkCapacitySweepSerial(b *testing.B) { benchCapacitySweep(b, 1) }

func BenchmarkCapacitySweepParallel(b *testing.B) { benchCapacitySweep(b, runtime.GOMAXPROCS(0)) }

func BenchmarkScenarios(b *testing.B) {
	var r experiments.ScenariosResult
	for i := 0; i < b.N; i++ {
		r = experiments.Scenarios()
	}
	b.ReportMetric(float64(len(r.Cells)), "cells")
}

// BenchmarkResilience drives a two-replica fleet through a mid-run crash
// with bounded-retry failover — the fault injector's hot path (casualty
// handling, re-routing, re-prefill accounting) under the allocation gate.
func BenchmarkResilience(b *testing.B) {
	plan := FaultPlan{Name: "bench-crash", Faults: []Fault{
		{Kind: FaultCrash, Replica: 0, At: 0.8},
	}}
	var f *FleetResult
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(NewPAPI, LLaMA65B(), ClusterOptions{
			Replicas:     2,
			MaxBatch:     16,
			Router:       LeastOutstanding(),
			Serving:      DefaultOptions(1),
			Faults:       &plan,
			Retries:      2,
			RetryBackoff: Seconds(0.05),
		})
		if err != nil {
			b.Fatal(err)
		}
		f, err = c.Run(GeneralQA().Poisson(64, 60, 5))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Retries), "failover-retries")
	b.ReportMetric(f.Availability(), "availability")
}

// BenchmarkTieredMacroStep drives the flagship tiered-diurnal stream at
// TLP = 4 through a fleet: both priority classes outstanding *and*
// speculative commits — the two regimes that used to force the decode loop
// back to one iteration per Step. Class-boundary macro windows now cover
// them, and this benchmark rides the BENCH_PR<N>.json trajectory so a
// change that silently reopens the fallback shows up as a wall-clock and
// allocs/op jump.
func BenchmarkTieredMacroStep(b *testing.B) {
	sc, err := ScenarioByName("tiered-diurnal")
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := sc.Requests(192, 7)
	if err != nil {
		b.Fatal(err)
	}
	var f *FleetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewClusterByName("PAPI", OPT30B(), ClusterOptions{
			Replicas: 2,
			MaxBatch: 8,
			Router:   LeastOutstanding(),
			Serving:  DefaultOptions(4),
		})
		if err != nil {
			b.Fatal(err)
		}
		f, err = c.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Completed), "completed")
}

// BenchmarkMillionRequest is the scale gate: one million tiered-diurnal
// requests served by a 100-replica PAPI fleet through the constant-memory
// streaming path — the lazy RunSeq iterator with retention off and the
// inline barrier driver. The custom metrics pin the two
// scale claims: wall-clock throughput (req/s) and the heap retained across
// the run, which must stay flat in the request count. A single iteration is
// a full simulated day, so the bench gate runs this at -benchtime 1x.
func BenchmarkMillionRequest(b *testing.B) {
	const (
		requests = 1_000_000
		replicas = 100
		// The scenario's native cadence is ~20 req/s; compress the day so
		// the 100 replicas run saturated instead of idle.
		rate = 2500
	)
	sc, err := ScenarioByName("tiered-diurnal")
	if err != nil {
		b.Fatal(err)
	}
	var f *FleetResult
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		c, err := NewClusterByName("PAPI", OPT30B(), ClusterOptions{
			Replicas: replicas,
			MaxBatch: 8,
			Router:   LeastOutstanding(),
			Serving:  DefaultOptions(1),
		})
		if err != nil {
			b.Fatal(err)
		}
		// Bridge the push-style scenario generator into RunSeq's pull
		// iterator; the buffered channel keeps the generator one-lookahead
		// ahead without materializing the stream.
		ch := make(chan Request, 4096)
		go func() {
			sc.Each(requests, 42, func(r Request) bool {
				r.Arrival = Seconds(r.Arrival.Seconds() * 20 / rate)
				ch <- r
				return true
			})
			close(ch)
		}()
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err = c.RunSeq(func() (Request, bool) { r, ok := <-ch; return r, ok })
		if err != nil {
			b.Fatal(err)
		}
		// A second GC separates true retention from collectable garbage.
		runtime.GC()
		runtime.ReadMemStats(&after)
	}
	if f.Completed != requests {
		b.Fatalf("completed %d of %d requests", f.Completed, requests)
	}
	b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6
	if retained < 0 {
		retained = 0
	}
	b.ReportMetric(retained, "retained-MB")
}

// BenchmarkKVBlockStore drives the block-level KV cache through a
// steady-state serving cycle — admit with prefix adoption, per-token decode
// growth, commit back to the prefix inventory — under enough pressure that
// the tiers move. Allocation counts here are the hot-path discipline the
// noalloc analyzer pins: steady-state store operations must not allocate,
// and each request reuses a committed lease, as the serving engine's
// constant-memory mode reuses its request records.
func BenchmarkKVBlockStore(b *testing.B) {
	const blockTokens = 32
	store, err := kv.NewStore(kv.Options{BlockTokens: blockTokens, Sharing: true, ColdFactor: 1},
		96, Bytes(blockTokens*1024))
	if err != nil {
		b.Fatal(err)
	}
	var leases [8]kv.Lease
	adopted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 8 requests over 4 shared prefix groups: later requests adopt the
		// blocks earlier ones published, evicting idle state as they grow.
		for r := 0; r < 8; r++ {
			prefix := 256 + 64*(r%4)
			max := prefix + 128
			l := &leases[r]
			store.InitLease(l, int64(1+r%4), int64(r), prefix, max, false)
			if !store.CanAdmit(store.PlanAdmit(l, prefix)) {
				b.Fatal("admission plan exceeded the hot tier")
			}
			c, err := store.Admit(l, prefix)
			if err != nil {
				b.Fatal(err)
			}
			adopted += c.SharedTokens
			for tok := prefix + 1; tok <= max; tok++ {
				if err := store.Extend(l, tok); err != nil {
					b.Fatal(err)
				}
			}
			store.Commit(l)
		}
	}
	b.ReportMetric(float64(adopted)/float64(b.N), "adopted-tok/op")
}
