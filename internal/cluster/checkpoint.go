package cluster

import (
	"encoding/json"
	"fmt"

	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// checkpointVersion is bumped on any incompatible change to the checkpoint
// encoding; Import rejects versions it does not understand.
const checkpointVersion = 1

// Checkpoint is a byte-stable snapshot of one or more completed fleet
// segments — the mergeable essence of a FleetResult. A run too long for one
// process splits into segments (each its own Cluster run over a slice of the
// arrival stream); every segment exports a Checkpoint, and merging them in
// segment order sums the counters and merges the latency distributions of
// everything the segments served, without any segment retaining per-request
// state. Each segment starts from an empty fleet, so queue state does not
// carry across a split boundary: split where the fleet drains (a diurnal
// trough) for segments that add up to the unsplit run.
//
// The identity fields (System, Model, Router) fence merges: two segments of
// different fleets have no meaningful sum, so Merge rejects them.
type Checkpoint struct {
	Version int    `json:"version"`
	System  string `json:"system"`
	Model   string `json:"model"`
	Router  string `json:"router"`

	// Runs counts the merged segments.
	Runs int `json:"runs"`

	// Makespan is the longest segment's makespan — segments replay disjoint
	// slices of one timeline, so wall spans overlay rather than add.
	// ReplicaSeconds and the energy total, by contrast, are genuine sums of
	// provisioned capacity-time and joules.
	Makespan       units.Seconds `json:"makespan"`
	ReplicaSeconds units.Seconds `json:"replica_seconds"`
	EnergyJoules   units.Joules  `json:"energy_joules"`
	PeakReplicas   int           `json:"peak_replicas"`

	Tokens      int `json:"tokens"`
	LostTokens  int `json:"lost_tokens"`
	Preemptions int `json:"preemptions"`
	Faults      int `json:"faults"`
	Retries     int `json:"retries"`
	Completed   int `json:"completed"`
	Failed      int `json:"failed"`
	Shed        int `json:"shed"`

	// Agg carries the constant-memory latency distributions; merging
	// checkpoints merges the sketches in argument order.
	Agg *FleetAggregate `json:"agg"`
}

// Checkpoint snapshots the result's mergeable state.
func (f *FleetResult) Checkpoint() *Checkpoint {
	agg := newFleetAggregate()
	if f.Agg != nil {
		agg.merge(f.Agg)
	}
	return &Checkpoint{
		Version:        checkpointVersion,
		System:         f.System,
		Model:          f.Model,
		Router:         f.Router,
		Runs:           1,
		Makespan:       f.Makespan,
		ReplicaSeconds: f.ReplicaSeconds,
		EnergyJoules:   f.Energy.Total(),
		PeakReplicas:   f.PeakReplicas,
		Tokens:         f.Tokens,
		LostTokens:     f.LostTokens,
		Preemptions:    f.Preemptions,
		Faults:         f.Faults,
		Retries:        f.Retries,
		Completed:      f.Completed,
		Failed:         len(f.FailedRequests),
		Shed:           f.ShedArrivals,
		Agg:            agg,
	}
}

// Merge folds o into c (o is unchanged). Segments must describe the same
// fleet; merge in segment order so the sketch digests are reproducible.
func (c *Checkpoint) Merge(o *Checkpoint) error {
	if c.System != o.System || c.Model != o.Model || c.Router != o.Router {
		return fmt.Errorf("cluster: cannot merge checkpoints of different fleets (%s/%s/%s vs %s/%s/%s)",
			c.System, c.Model, c.Router, o.System, o.Model, o.Router)
	}
	c.Runs += o.Runs
	if o.Makespan > c.Makespan {
		c.Makespan = o.Makespan
	}
	c.ReplicaSeconds += o.ReplicaSeconds
	c.EnergyJoules += o.EnergyJoules
	if o.PeakReplicas > c.PeakReplicas {
		c.PeakReplicas = o.PeakReplicas
	}
	c.Tokens += o.Tokens
	c.LostTokens += o.LostTokens
	c.Preemptions += o.Preemptions
	c.Faults += o.Faults
	c.Retries += o.Retries
	c.Completed += o.Completed
	c.Failed += o.Failed
	c.Shed += o.Shed
	c.Agg.merge(o.Agg)
	return nil
}

// Export encodes the checkpoint as byte-stable JSON: encoding the same
// checkpoint twice yields identical bytes, so segment artifacts diff cleanly.
func (c *Checkpoint) Export() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// ImportCheckpoint decodes and validates an exported checkpoint.
func ImportCheckpoint(data []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("cluster: invalid checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("cluster: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	if c.Agg == nil || c.Agg.TTFT == nil || c.Agg.TPOT == nil || c.Agg.InteractiveTPOT == nil ||
		c.Agg.BatchTPOT == nil || c.Agg.InteractiveScore == nil || c.Agg.BatchScore == nil {
		return nil, fmt.Errorf("cluster: checkpoint is missing its latency aggregate")
	}
	if c.Runs < 1 {
		return nil, fmt.Errorf("cluster: checkpoint runs %d must be at least 1", c.Runs)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"completed", c.Completed}, {"failed", c.Failed}, {"tokens", c.Tokens},
		{"lost_tokens", c.LostTokens}, {"preemptions", c.Preemptions}, {"faults", c.Faults},
		{"retries", c.Retries}, {"shed", c.Shed}, {"peak_replicas", c.PeakReplicas},
	} {
		if f.n < 0 {
			return nil, fmt.Errorf("cluster: checkpoint %s %d is negative", f.name, f.n)
		}
	}
	if c.Makespan < 0 || c.ReplicaSeconds < 0 || c.EnergyJoules < 0 {
		return nil, fmt.Errorf("cluster: checkpoint has a negative total (makespan %v, replica_seconds %v, energy_joules %v)",
			c.Makespan, c.ReplicaSeconds, c.EnergyJoules)
	}
	if int64(c.Completed) != c.Agg.Completed {
		return nil, fmt.Errorf("cluster: checkpoint ledger mismatch: %d completed vs %d in the aggregate",
			c.Completed, c.Agg.Completed)
	}
	return c, nil
}

// TTFT and TPOT digest the merged latency distributions, as FleetResult's
// summaries do for a single run.
func (c *Checkpoint) TTFT() stats.Summary { return c.Agg.TTFT.Summary() }
func (c *Checkpoint) TPOT() stats.Summary { return c.Agg.TPOT.Summary() }

// Attainment scores the merged segments against a per-token SLO, with the
// same vacuous-1 empty-window rule as FleetResult.Attainment.
func (c *Checkpoint) Attainment(slo workload.SLO) float64 {
	total := c.Completed + c.Failed
	if total == 0 {
		return 1
	}
	return float64(c.Agg.metCount(slo)) / float64(total)
}

// Availability is the completed fraction across the merged segments
// (vacuously 1 when nothing was injected, as in FleetResult.Availability).
func (c *Checkpoint) Availability() float64 {
	total := c.Completed + c.Failed
	if total == 0 {
		return 1
	}
	return float64(c.Completed) / float64(total)
}

// String renders the merged digest.
func (c *Checkpoint) String() string {
	ttft, tpot := c.TTFT(), c.TPOT()
	return fmt.Sprintf(
		"%s · %s · router %s · %d segment(s)\n"+
			"%d completed / %d failed · %d tokens · makespan %v · %v replica-seconds · %v\n"+
			"TTFT p50/p95/p99 %v / %v / %v · TPOT p50/p95/p99 %v / %v / %v\n",
		c.System, c.Model, c.Router, c.Runs,
		c.Completed, c.Failed, c.Tokens, c.Makespan, c.ReplicaSeconds, c.EnergyJoules,
		units.Seconds(ttft.P50), units.Seconds(ttft.P95), units.Seconds(ttft.P99),
		units.Seconds(tpot.P50), units.Seconds(tpot.P95), units.Seconds(tpot.P99))
}
