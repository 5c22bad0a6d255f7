package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// ScaleCell is one execution strategy's run over the identical tiered-diurnal
// stream: one unsplit run, or a checkpointed split across segments — the
// scaling machinery measured on the same traffic.
type ScaleCell struct {
	// Config names the strategy: "serial" or "segments-N".
	Config string
	// Segments is how many checkpointed sub-runs the stream was split into
	// (1 = unsplit).
	Segments int
	// Requests is the stream size, Completed how many the fleet finished —
	// counted by the streaming aggregate, with no per-request retention.
	Requests  int
	Completed int
	Tokens    int
	Makespan  units.Seconds
	// TokensPerSec and RequestsPerSec are simulated throughput over the
	// makespan (wall-clock speed is the benchmark suite's question, not the
	// figure's — it would not be deterministic).
	TokensPerSec   float64
	RequestsPerSec float64
	// TTFT and TPOT digest the latency distributions from the constant-memory
	// sketches; past their exact regime they carry the documented rank error.
	TTFT stats.Summary
	TPOT stats.Summary
	// InteractiveAttainment scores the interactive tier against the SLO,
	// evaluated on the streaming aggregate.
	InteractiveAttainment float64
	// MatchesSerial reports bit-identity with the serial cell's result,
	// which the serial cell matches by definition. Segment cells report
	// false: a split run restarts from an empty fleet at each boundary, so
	// it is a different (still deterministic) schedule.
	MatchesSerial bool
}

// ScaleResult is the scale sweep: one tiered-diurnal stream served by each
// execution strategy of the million-request machinery — the unsplit run as
// the oracle, and a checkpointed split whose merged ledger must conserve
// every request.
// The stream deliberately exceeds the sketches' exact regime, so the figure
// also pins the approximate-regime digests deterministically.
type ScaleResult struct {
	Model    string
	Scenario string
	Replicas int
	MaxBatch int
	Requests int
	SLO      workload.SLO
	Cells    []ScaleCell
}

// Scale runs the default sweep: a 2,400-request tiered-diurnal stream — past
// the 2,048-sample exact regime of the fleet sketches — on 4-replica OPT-30B
// PAPI fleets, unsplit versus a two-segment checkpointed split, under the
// 12 ms interactive TPOT SLO.
func Scale() ScaleResult {
	return ScaleSweep(model.OPT30B(), 4, 2400, 8,
		workload.SLO{TokenLatency: units.Milliseconds(12)})
}

// ScaleSweep measures every execution strategy on the identical stream. All
// cells run with retention off — the constant-memory path is the machinery
// under test.
func ScaleSweep(cfg model.Config, replicas, requests, maxBatch int, slo workload.SLO) ScaleResult {
	sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
	if err != nil {
		panic(fmt.Sprintf("experiments: scale: %v", err))
	}
	stream, err := sc.Requests(requests, Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: scale: %v", err))
	}
	out := ScaleResult{
		Model:    cfg.Name,
		Scenario: sc.Name,
		Replicas: replicas,
		MaxBatch: maxBatch,
		Requests: requests,
		SLO:      slo,
	}

	newFleet := func() *cluster.Cluster {
		cl, err := cluster.NewByName("PAPI", cfg, cluster.Options{
			Replicas: replicas,
			MaxBatch: maxBatch,
			Router:   cluster.LeastOutstanding(),
			Serving:  serving.DefaultOptions(1),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: scale: %v", err))
		}
		return cl
	}

	// The unsplit run is the oracle the split is judged against.
	serial, err := newFleet().Run(stream)
	if err != nil {
		panic(fmt.Sprintf("experiments: scale serial: %v", err))
	}

	// The checkpointed split serves the stream as two independent segments
	// (the second re-based to its own time zero) and merges their exported
	// checkpoints — the cross-process form of a long run.
	half := requests / 2
	second := append([]workload.Request(nil), stream[half:]...)
	base := second[0].Arrival
	for j := range second {
		second[j].Arrival -= base
	}
	segA, err := newFleet().Run(stream[:half])
	if err != nil {
		panic(fmt.Sprintf("experiments: scale segment A: %v", err))
	}
	segB, err := newFleet().Run(second)
	if err != nil {
		panic(fmt.Sprintf("experiments: scale segment B: %v", err))
	}
	merged := segA.Checkpoint()
	if data, err := merged.Export(); err != nil {
		panic(fmt.Sprintf("experiments: scale checkpoint: %v", err))
	} else if merged, err = cluster.ImportCheckpoint(data); err != nil {
		// Round-trip through the byte-stable encoding, as processes would.
		panic(fmt.Sprintf("experiments: scale checkpoint: %v", err))
	}
	if err := merged.Merge(segB.Checkpoint()); err != nil {
		panic(fmt.Sprintf("experiments: scale merge: %v", err))
	}

	out.Cells = []ScaleCell{
		{
			Config:                "serial",
			Segments:              1,
			Requests:              requests,
			Completed:             serial.Completed,
			Tokens:                serial.Tokens,
			Makespan:              serial.Makespan,
			TokensPerSec:          serial.TokensPerSecond(),
			RequestsPerSec:        serial.RequestsPerSecond(),
			TTFT:                  serial.TTFT,
			TPOT:                  serial.TPOT,
			InteractiveAttainment: serial.AttainmentClass(slo, workload.ClassInteractive),
			MatchesSerial:         true,
		},
		{
			Config:    "segments-2",
			Segments:  2,
			Requests:  requests,
			Completed: merged.Completed,
			Tokens:    merged.Tokens,
			Makespan:  merged.Makespan,
			TokensPerSec: func() float64 {
				if merged.Makespan <= 0 {
					return 0
				}
				return float64(merged.Tokens-merged.LostTokens) / merged.Makespan.Seconds()
			}(),
			RequestsPerSec: func() float64 {
				if merged.Makespan <= 0 {
					return 0
				}
				return float64(merged.Completed) / merged.Makespan.Seconds()
			}(),
			TTFT:                  merged.TTFT(),
			TPOT:                  merged.TPOT(),
			InteractiveAttainment: interactiveAttainment(merged, slo),
			MatchesSerial:         false,
		},
	}
	return out
}

// interactiveAttainment scores a merged checkpoint's interactive tier, the
// way FleetResult.AttainmentClass scores a single run's.
func interactiveAttainment(c *cluster.Checkpoint, slo workload.SLO) float64 {
	sk := c.Agg.InteractiveScore
	met, n := sk.Count(), sk.Count()
	if slo.TokenLatency > 0 {
		met = sk.CountLE(slo.TokenLatency.Seconds())
	}
	if n == 0 {
		return 1
	}
	return float64(met) / float64(n)
}

// String renders the strategy table.
func (r ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: %d-request %s on %d× PAPI (%s, max batch %d, interactive TPOT ≤ %v)\n",
		r.Requests, r.Scenario, r.Replicas, r.Model, r.MaxBatch, r.SLO.TokenLatency)
	tb := stats.NewTable("execution strategies on identical traffic",
		"config", "segments", "completed", "tok/s", "req/s",
		"TTFT p99", "TPOT p99", "int attain", "≡ serial")
	for _, c := range r.Cells {
		tb.AddRow(
			c.Config,
			fmt.Sprintf("%d", c.Segments),
			fmt.Sprintf("%d", c.Completed),
			fmt.Sprintf("%.0f", c.TokensPerSec),
			fmt.Sprintf("%.1f", c.RequestsPerSec),
			units.Seconds(c.TTFT.P99).String(),
			units.Seconds(c.TPOT.P99).String(),
			fmt.Sprintf("%.3f", c.InteractiveAttainment),
			fmt.Sprintf("%v", c.MatchesSerial),
		)
	}
	b.WriteString(tb.String())
	return b.String()
}
