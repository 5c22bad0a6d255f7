// Package papi is a simulator of PAPI — "PAPI: Exploiting Dynamic Parallelism
// in Large Language Model Decoding with a Processing-In-Memory-Enabled
// Computing System" (ASPLOS 2025) — and of the systems it is evaluated
// against.
//
// The package is a facade over the internal simulator packages. It exposes:
//
//   - the evaluated computing systems: PAPI (GPU + hybrid FC-PIM/Attn-PIM +
//     dynamic parallelism-aware scheduler) and the baselines A100+AttAcc,
//     A100+HBM-PIM, AttAcc-only, and PIM-only PAPI — each a registry entry
//     of the declarative design layer, which also admits arbitrary new
//     designs as serializable specs (byte-stable JSON) and design-space
//     exploration sweeps over them;
//   - the evaluation LLMs (OPT-30B, LLaMA-65B, GPT-3 66B/175B) and the
//     Dolly-like workload generators, plus the scenario engine: named
//     workload regimes (steady, bursty, diurnal, closed-loop multi-turn,
//     long-context) and byte-stable trace export/replay;
//   - the serving engine (static and mixed continuous batching, speculative
//     decoding) with full time and energy accounting, priority-class
//     admission and batch preemption;
//   - fleet-level cluster serving with routers and SLO-driven elastic
//     autoscaling (warm-up, graceful drain, replica-seconds accounting);
//   - deterministic fault injection (replayable crash/straggler/brownout
//     plans) with bounded-retry failover, request timeouts, and
//     availability accounting;
//   - every figure reproduction from the paper's evaluation section.
//
// Quick start:
//
//	sys := papi.NewPAPI()
//	eng, err := papi.NewEngine(sys, papi.LLaMA65B(), papi.DefaultOptions(4))
//	if err != nil { ... }
//	res, err := eng.RunBatch(papi.CreativeWriting().Generate(16, 1))
//	fmt.Println(res.TotalTime(), res.Energy.Total())
package papi

import (
	"fmt"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Systems (§4, §7.1).

// System is one complete evaluated computing system.
type System = design.System

// NewPAPI builds the full PAPI system with the calibrated α threshold.
func NewPAPI() *System { return design.MustBuild(design.PAPI(0)) }

// NewPAPIWithAlpha builds PAPI with a custom memory-boundedness threshold:
// 0 selects the calibrated default, anything else must be finite and
// positive.
func NewPAPIWithAlpha(alpha float64) (*System, error) { return design.PAPI(alpha).Build() }

// NewA100AttAcc builds the A100+AttAcc baseline.
func NewA100AttAcc() *System { return design.MustBuild(design.A100AttAcc()) }

// NewA100HBMPIM builds the A100+HBM-PIM baseline.
func NewA100HBMPIM() *System { return design.MustBuild(design.A100HBMPIM()) }

// NewAttAccOnly builds the PIM-only AttAcc baseline.
func NewAttAccOnly() *System { return design.MustBuild(design.AttAccOnly()) }

// NewPIMOnlyPAPI builds the §7.4 GPU-less PAPI variant.
func NewPIMOnlyPAPI() *System { return design.MustBuild(design.PIMOnlyPAPI()) }

// Designs returns the four systems of Fig. 8 in presentation order.
func Designs() []*System { return design.Fig8Systems() }

// SystemByName builds a system from its display name.
func SystemByName(name string) (*System, error) {
	spec, err := design.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// DefaultAlpha is the calibrated scheduling threshold (§5.2.1).
const DefaultAlpha = design.DefaultAlpha

// Declarative hardware design layer (see docs/DESIGNS.md): every system is
// described by a serializable spec — GPU node, PIM pools, links, policy —
// with byte-stable JSON export/import, and the five evaluated systems are
// the registry entries the constructors above build.

// DesignSpec is one complete hardware design, declaratively; DesignSpec.Build
// assembles and validates the System it describes.
type DesignSpec = design.Spec

// GPUSpec describes a design's processing-unit pool.
type GPUSpec = design.GPUSpec

// PIMSpec describes one pool of PIM-enabled HBM stacks (xPyB organisation,
// floorplan, bandwidth, FC datapath capabilities).
type PIMSpec = design.PIMSpec

// LinkSpec describes one interconnect class.
type LinkSpec = design.LinkSpec

// PolicySpec names a design's FC placement policy ("dynamic", "static-pu",
// "static-pim").
type PolicySpec = design.PolicySpec

// NVLink3Link returns the GPU↔FC-PIM fabric preset as a spec.
func NVLink3Link() *LinkSpec { return design.NVLink3Link() }

// CXL2Link returns the CXL 2.0 attention-fabric preset as a spec — the
// starting point for custom designs that only re-dimension bandwidth.
func CXL2Link() *LinkSpec { return design.CXL2Link() }

// DesignSpecs returns the design registry: every named design spec, in
// presentation order.
func DesignSpecs() []DesignSpec { return design.Registry() }

// DesignNames lists the registered design names in presentation order.
func DesignNames() []string { return design.Names() }

// DesignByName resolves a registered design spec by display name.
func DesignByName(name string) (DesignSpec, error) { return design.ByName(name) }

// ImportDesignSpec parses and validates an exported design spec.
func ImportDesignSpec(data []byte) (DesignSpec, error) { return design.ImportSpec(data) }

// Models (§7.1).

// Model is one transformer LLM configuration.
type Model = model.Config

// OPT30B returns the OPT-30B configuration (the Fig. 2 roofline model).
func OPT30B() Model { return model.OPT30B() }

// LLaMA65B returns the LLaMA-65B configuration.
func LLaMA65B() Model { return model.LLaMA65B() }

// GPT3_66B returns the GPT-3 66B configuration.
func GPT3_66B() Model { return model.GPT3_66B() }

// GPT3_175B returns the GPT-3 175B configuration.
func GPT3_175B() Model { return model.GPT3_175B() }

// Models returns the evaluation models.
func Models() []Model { return model.All() }

// ModelByName resolves a model configuration by display name.
func ModelByName(name string) (Model, error) { return model.ByName(name) }

// Workloads (§7.1).

// Request is one inference request.
type Request = workload.Request

// Dataset generates Dolly-like request streams.
type Dataset = workload.Dataset

// CreativeWriting returns the long-output workload.
func CreativeWriting() Dataset { return workload.CreativeWriting() }

// GeneralQA returns the short-answer workload.
func GeneralQA() Dataset { return workload.GeneralQA() }

// LongContext returns the document-grounded workload (multi-thousand-token
// prompts, moderate answers).
func LongContext() Dataset { return workload.LongContext() }

// DatasetByName resolves a dataset by name.
func DatasetByName(name string) (Dataset, error) { return workload.ByName(name) }

// Class is a request's priority class: interactive traffic is admitted ahead
// of batch work and may preempt it under KV pressure.
type Class = workload.Class

// Priority classes, highest first.
const (
	ClassInteractive = workload.ClassInteractive
	ClassBatch       = workload.ClassBatch
)

// ClassByName resolves a priority class by display name ("interactive",
// "batch").
func ClassByName(name string) (Class, error) { return workload.ClassByName(name) }

// AssignClasses deterministically tags a fraction of a request stream as
// batch-class, in place.
func AssignClasses(reqs []Request, batchFraction float64, seed int64) []Request {
	return workload.AssignClasses(reqs, batchFraction, seed)
}

// Scenario engine: arrival processes × length mixes, saved traces, and the
// named-scenario registry (see docs/SCENARIOS.md).

// Scenario is a named workload regime: an arrival process crossed with a
// length mix, optionally closed-loop multi-turn.
type Scenario = workload.Scenario

// ArrivalProcess generates request arrival instants (Poisson, bursty on-off,
// diurnal).
type ArrivalProcess = workload.ArrivalProcess

// Trace is a saved request stream with byte-stable JSON export/import.
type Trace = workload.Trace

// Conversation is one pre-sampled closed-loop multi-turn conversation.
type Conversation = workload.Conversation

// Scenarios returns the registered scenarios in presentation order.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioNames lists the registered scenario names.
func ScenarioNames() []string { return workload.ScenarioNames() }

// ScenarioByName resolves a registered scenario.
func ScenarioByName(name string) (Scenario, error) { return workload.ScenarioByName(name) }

// NewPoisson returns a stationary Poisson arrival process; the rate must be
// finite and positive.
func NewPoisson(ratePerSec float64) (ArrivalProcess, error) {
	return arrivals(workload.NewPoisson(ratePerSec))
}

// NewOnOff returns a bursty Markov-modulated on-off arrival process; rates
// and dwells must be finite and positive.
func NewOnOff(burstRate, baseRate float64, meanBurst, meanLull Seconds) (ArrivalProcess, error) {
	return arrivals(workload.NewOnOff(burstRate, baseRate, meanBurst, meanLull))
}

// NewDiurnal returns a sinusoidal-rate arrival process; base and period must
// be finite and positive, and the amplitude in [0, 1).
func NewDiurnal(base, amplitude float64, period Seconds) (ArrivalProcess, error) {
	return arrivals(workload.NewDiurnal(base, amplitude, period))
}

// arrivals hands a constructor's result through as an ArrivalProcess, nil
// on error rather than a nil pointer boxed in the interface.
func arrivals[P ArrivalProcess](p P, err error) (ArrivalProcess, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NewTrace records a request stream as a replayable trace.
func NewTrace(name, scenario string, seed int64, reqs []Request) Trace {
	return workload.NewTrace(name, scenario, seed, reqs)
}

// ImportTrace parses and validates an exported trace.
func ImportTrace(data []byte) (Trace, error) { return workload.ImportTrace(data) }

// Serving.

// Options configures a serving run (speculation length, acceptance rate,
// draft model, seeds).
type Options = serving.Options

// Result reports one serving run: latency, energy ledger, phase breakdown,
// RLP traces and scheduler activity.
type Result = serving.Result

// Engine runs inference batches on one system/model pair.
type Engine = serving.Engine

// DefaultOptions returns the evaluation defaults for a speculation length.
func DefaultOptions(tlp int) Options { return serving.DefaultOptions(tlp) }

// NewEngine validates and builds a serving engine.
func NewEngine(sys *System, cfg Model, opt Options) (*Engine, error) {
	return serving.New(sys, cfg, opt)
}

// Stepper advances one engine iteration-by-iteration on a caller-owned
// clock (the resumable core shared by RunBatch, RunContinuous, and the
// cluster simulator).
type Stepper = serving.Stepper

// KVOptions configures the block-level KV cache (block size, prefix
// sharing, cold-tier sizing, eviction policy); set Options.KV to enable it.
type KVOptions = kv.Options

// KVStats is a serving run's block-cache ledger: prefix-index hits, adopted
// tokens, tier motion, and host-link transfer totals.
type KVStats = kv.Stats

// KVPolicy selects the deterministic eviction order over idle blocks.
type KVPolicy = kv.Policy

// Eviction policies for KVOptions.Policy.
const (
	KVPolicyLRU      = kv.PolicyLRU
	KVPolicyRefAware = kv.PolicyRefAware
)

// DefaultKVOptions returns the block-cache defaults (32-token blocks,
// sharing on, 4× cold tier).
func DefaultKVOptions() KVOptions { return kv.DefaultOptions() }

// KVPolicyByName resolves an eviction policy by its display name.
func KVPolicyByName(name string) (KVPolicy, error) { return kv.PolicyByName(name) }

// RequestMetrics is one request's latency experience (TTFT, TPOT,
// completion).
type RequestMetrics = serving.RequestMetrics

// SLO is a per-token latency service-level objective.
type SLO = workload.SLO

// SLOAttainment scores request metrics against a per-token SLO
// (single-token requests are judged by TTFT-inclusive completion).
func SLOAttainment(reqs []RequestMetrics, slo SLO) float64 {
	return serving.SLOAttainment(reqs, slo)
}

// Cluster serving (fleet-level).

// Cluster is a single-use fleet of replica engines behind a router.
type Cluster = cluster.Cluster

// ClusterOptions configures a fleet: replica count, admission cap, router,
// per-replica serving options, and optionally a fault plan with its
// bounded-retry/timeout failover policy.
type ClusterOptions = cluster.Options

// FleetResult aggregates one cluster run: per-replica results, aggregate
// throughput and energy, p50/p95/p99 TTFT/TPOT digests, and — under fault
// injection — the resilience ledger (faults fired, retries, failed
// requests, availability).
type FleetResult = cluster.FleetResult

// Router spreads an arrival stream over the fleet's replicas.
type Router = cluster.Router

// NewCluster builds a fleet whose replicas each own a system built by
// newSys.
func NewCluster(newSys func() *System, cfg Model, opt ClusterOptions) (*Cluster, error) {
	return cluster.New(newSys, cfg, opt)
}

// NewClusterByName builds a fleet of the named system design.
func NewClusterByName(name string, cfg Model, opt ClusterOptions) (*Cluster, error) {
	return cluster.NewByName(name, cfg, opt)
}

// NewClusterFromSpecs builds a fleet from declarative design specs: several
// specs provision a mixed-design fleet whose replicas are provisioned
// toward the list's design ratio (repeat an entry to weight its design;
// elastic fleets restore the ratio as they grow) and whose metrics
// FleetResult splits per design. The initial Replicas must cover every
// listed spec.
func NewClusterFromSpecs(specs []DesignSpec, cfg Model, opt ClusterOptions) (*Cluster, error) {
	return cluster.NewFromSpecs(specs, cfg, opt)
}

// FleetDesignMetrics is one design's share of a mixed fleet's run.
type FleetDesignMetrics = cluster.DesignMetrics

// FleetAggregate is the constant-memory streaming form of a fleet's latency
// distributions: deterministic mergeable quantile sketches fed at each
// completion. FleetResult.Agg always carries one, so digests and attainment
// need no per-request retention (see ClusterOptions.RetainRequests).
type FleetAggregate = cluster.FleetAggregate

// LatencySketch is the deterministic mergeable quantile sketch behind
// FleetAggregate: constant memory, byte-stable JSON, and bit-identical to
// the exact quantiles while a run stays within its exact regime.
type LatencySketch = stats.Sketch

// NewLatencySketch returns an empty sketch at the default accuracy.
func NewLatencySketch() *LatencySketch { return stats.NewSketch() }

// FleetCheckpoint is a byte-stable, mergeable snapshot of a completed fleet
// run — FleetResult.Checkpoint()'s type — so a long run can split into
// segments across processes and still report one merged digest.
type FleetCheckpoint = cluster.Checkpoint

// ImportFleetCheckpoint parses and validates an exported fleet checkpoint.
func ImportFleetCheckpoint(data []byte) (*FleetCheckpoint, error) {
	return cluster.ImportCheckpoint(data)
}

// RoundRobin cycles requests through the replicas in order.
func RoundRobin() Router { return cluster.RoundRobin() }

// LeastOutstanding routes to the replica with the fewest outstanding
// requests.
func LeastOutstanding() Router { return cluster.LeastOutstanding() }

// KVHeadroom routes to the replica with the most free KV-cache capacity.
func KVHeadroom() Router { return cluster.KVHeadroom() }

// RouterByName resolves a routing policy by display name ("round-robin",
// "least-outstanding", "kv-headroom").
func RouterByName(name string) (Router, error) { return cluster.RouterByName(name) }

// Elastic serving (SLO-driven fleet autoscaling).

// AutoscaleOptions configures the elastic control loop: replica bounds,
// control period, warm-up/cool-down latencies, the defended SLO, and the
// windowed signal thresholds (queue depth, p95 TPOT, KV pressure, arrival
// rate).
type AutoscaleOptions = cluster.AutoscaleOptions

// ScaleEvent is one elastic transition with the windowed signals that drove
// it.
type ScaleEvent = cluster.ScaleEvent

// ScaleAction names an elastic transition kind.
type ScaleAction = cluster.ScaleAction

// Elastic transitions, in lifecycle order.
const (
	ScaleUp    = cluster.ScaleUp
	ScaleLive  = cluster.ScaleLive
	ScaleDrain = cluster.ScaleDrain
	ScaleStop  = cluster.ScaleStop
)

// DefaultAutoscale returns a ready-to-use elastic configuration for the
// given fleet bounds and interactive TPOT SLO.
func DefaultAutoscale(min, max int, slo SLO) *AutoscaleOptions {
	return cluster.DefaultAutoscale(min, max, slo)
}

// Resilience (deterministic fault injection; see docs/RESILIENCE.md).

// FaultPlan is a named, replayable fault schedule with byte-stable JSON
// export/import; set ClusterOptions.Faults to inject it into a fleet run.
type FaultPlan = faults.Plan

// Fault is one scheduled failure event in a plan: a permanent replica
// crash, a per-replica straggler window, or a fleet-wide brownout window.
type Fault = faults.Fault

// Fault kinds for Fault.Kind.
const (
	FaultCrash     = faults.KindCrash
	FaultStraggler = faults.KindStraggler
	FaultBrownout  = faults.KindBrownout
)

// MTBFOptions parameterises GenerateMTBFPlan (exponential mean time between
// failures and repair windows, per replica failure domain).
type MTBFOptions = faults.MTBFOptions

// GenerateMTBFPlan draws a seeded stochastic fault plan — a pure function
// of its options, so the same options always yield the same plan.
func GenerateMTBFPlan(opt MTBFOptions) (FaultPlan, error) { return faults.GenerateMTBF(opt) }

// ImportFaultPlan parses and validates an exported fault plan.
func ImportFaultPlan(data []byte) (FaultPlan, error) { return faults.ImportPlan(data) }

// FailedRequest is one request a fleet run terminally failed after
// exhausting its retry budget (FleetResult.FailedRequests).
type FailedRequest = cluster.FailedRequest

// SLOAttainmentClass scores one priority class of a request set against the
// per-token SLO (1 when the class is absent).
func SLOAttainmentClass(reqs []RequestMetrics, slo SLO, class Class) float64 {
	return serving.SLOAttainmentClass(reqs, slo, class)
}

// Placement identifies where an FC kernel runs.
type Placement = sched.Placement

// FC kernel placements.
const (
	PlacePU    = sched.PlacePU
	PlaceFCPIM = sched.PlaceFCPIM
)

// Seconds is the simulator's time quantity.
type Seconds = units.Seconds

// Bytes is the simulator's data-size quantity (KV footprints, transfers).
type Bytes = units.Bytes

// Kernel is one LLM kernel's shape (FLOPs, streamed weights/KV, activations).
type Kernel = model.Kernel

// MoE is a sparsely-activated Mixture-of-Experts model (§6.5).
type MoE = model.MoE

// Mixtral8x7BLike returns a Mixtral-8x7B-class MoE configuration.
func Mixtral8x7BLike() MoE { return model.Mixtral8x7BLike() }

// CompareFCPlacement executes one FC kernel shape on both of a system's FC
// engines and returns the times — the §5.2.1 offline-calibration measurement
// exposed for exploration. A missing engine yields an error.
func CompareFCPlacement(sys *System, k Kernel) (pu, fcpim Seconds, err error) {
	if sys.GPU == nil {
		return 0, 0, fmt.Errorf("papi: %s has no processing units", sys.Name)
	}
	if sys.FCPIM == nil {
		return 0, 0, fmt.Errorf("papi: %s has no FC-PIM devices", sys.Name)
	}
	pu, fcpim = sched.MeasureFC(sys.GPU, sys.FCPIM, k)
	return pu, fcpim, nil
}

// Simulate is the one-call convenience API: build the named design, generate
// a batch from the named dataset, and run it.
func Simulate(design, modelName, dataset string, batch, spec int, seed int64) (Result, error) {
	sys, err := SystemByName(design)
	if err != nil {
		return Result{}, err
	}
	cfg, err := model.ByName(modelName)
	if err != nil {
		return Result{}, err
	}
	ds, err := workload.ByName(dataset)
	if err != nil {
		return Result{}, err
	}
	if batch <= 0 {
		return Result{}, fmt.Errorf("papi: batch %d must be positive", batch)
	}
	eng, err := serving.New(sys, cfg, serving.DefaultOptions(spec))
	if err != nil {
		return Result{}, err
	}
	return eng.RunBatch(ds.Generate(batch, seed))
}
