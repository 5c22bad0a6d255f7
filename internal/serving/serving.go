// Package serving simulates end-to-end LLM inference on the evaluated
// systems: the prefill phase, iteration-by-iteration parallel decoding with
// batching and speculative decoding (§2), dynamic RLP decay as requests
// finish (§3.2, Fig. 3), per-iteration FC placement by the system's
// scheduling policy (§5), and full time/energy accounting with the
// FC / attention / communication / other breakdown of Fig. 12.
//
// The engine runs in two batching modes — RunBatch (static) and
// RunContinuous (mixed continuous batching) — both thin wrappers around
// Stepper, the resumable admit → decide → iterate → commit core that
// advances a window of same-RLP iterations per Step, on a caller-owned
// clock and up to a caller-set horizon. External arrival owners (the fleet
// simulator in internal/cluster, closed-loop multi-turn scenarios) inject
// requests mid-run with Push and observe completions, with their latency
// records, in what each Step returns. Per-request latency metrics (TTFT,
// TPOT, completion) and SLO attainment live in metrics.go.
package serving

import (
	"fmt"
	"math/rand"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Options configures a serving run.
type Options struct {
	// TLP is the speculation length (token-level parallelism); 1 disables
	// speculative decoding.
	TLP int
	// Seed drives the acceptance sampling (see acceptanceRate).
	Seed int64
	// DiscardCompleted drops finished requests instead of retaining them
	// for Finalize: Result.Requests comes back empty, and a completed
	// request's metrics are readable only in the Completion that Step
	// hands out as it finishes. The stepper also records no per-iteration
	// trace (Result.RLPTrace and IterStats stay nil). This is the
	// constant-memory mode the cluster layer selects for streaming fleet
	// runs (it folds every completion into mergeable sketches and reads no
	// trace); every other Result field is unchanged. The zero value
	// retains everything, so every existing caller is unaffected. Static
	// batch steppers ignore it: RunBatch's contract is the retained Result.
	DiscardCompleted bool
	// KV selects block-level KV-cache management (internal/kv): fixed-size
	// refcounted blocks, a prefix index that lets requests adopt committed
	// blocks instead of re-prefilling, and a hot/cold tier pair whose
	// promotion/demotion pays explicit transfer cost. Nil keeps the
	// per-request byte ledger. The options are validated either way, but
	// the engine builds a block store only when KV.Sharing is set: with
	// sharing off it runs the byte ledger, exactly as with KV = nil.
	KV *kv.Options
}

// DefaultOptions returns the configuration used by the figure reproductions.
func DefaultOptions(tlp int) Options {
	return Options{
		TLP:  tlp,
		Seed: 1,
	}
}

func (o Options) validate() error {
	if o.TLP < 1 {
		return fmt.Errorf("serving: TLP %d must be ≥ 1", o.TLP)
	}
	return nil
}

// TimeBreakdown splits decode time by phase (Fig. 12).
type TimeBreakdown struct {
	FC            units.Seconds
	Attention     units.Seconds
	Communication units.Seconds
	Other         units.Seconds
}

// Total sums the phases.
func (b TimeBreakdown) Total() units.Seconds {
	return b.FC + b.Attention + b.Communication + b.Other
}

// IterationStat records one decoding iteration.
type IterationStat struct {
	Index     int
	RLP       int
	TLP       int
	Placement sched.Placement
	Time      units.Seconds
	Tokens    int // tokens committed across the batch this iteration
}

// Result reports one batch's end-to-end execution.
type Result struct {
	System string
	Model  string

	PrefillTime units.Seconds
	DecodeTime  units.Seconds
	// IdleTime is time spent waiting for arrivals (continuous batching only).
	IdleTime   units.Seconds
	Iterations int
	Tokens     int // output tokens generated

	// PrefillTokens counts prompt tokens actually prefilled (after any
	// prefix-cache sharing); ReprefillTokens is the re-prefill tax within
	// that: prefilled tokens whose KV state had been computed before — a
	// preempted request's regrown context, a follow-up turn's carried
	// conversation, a shared document prefix — and that a sharing cache
	// could have adopted instead. Both are maintained in every mode, so
	// the sharing-off baseline exposes exactly the tax sharing removes.
	PrefillTokens   int `json:",omitempty"`
	ReprefillTokens int `json:",omitempty"`

	Breakdown   TimeBreakdown
	Energy      energy.Ledger
	Reschedules int
	// Preemptions counts evict-and-requeue events: batch-class requests
	// pushed out of the active batch to make KV room for an interactive
	// arrival (each re-admission pays a fresh prefill over the grown
	// context).
	Preemptions int
	Throttled   bool

	// RLPTrace is the request-level parallelism at each iteration (Fig. 3's
	// decay); capped in length for very long runs, and nil when
	// Options.DiscardCompleted drops the per-request records.
	RLPTrace []int
	// PerRequestIterations is, per request, the number of decoding
	// iterations it stayed active (Fig. 3's per-request view).
	PerRequestIterations []int
	// IterStats capture a capped per-iteration trace (Fig. 5(d) style);
	// like RLPTrace, only a stepper that retains its records keeps one.
	IterStats []IterationStat
	// Requests carries per-request latency metrics (TTFT, TPOT, completion).
	Requests []RequestMetrics

	// KV is the block store's cumulative activity (hit rate, shared tokens,
	// tier transfers); set only when Options.KV enables sharing.
	KV *kv.Stats `json:",omitempty"`
}

// TotalTime returns the makespan: prefill, decode, and arrival gaps.
func (r Result) TotalTime() units.Seconds { return r.PrefillTime + r.DecodeTime + r.IdleTime }

// TimePerToken returns decode time per generated output token.
func (r Result) TimePerToken() units.Seconds {
	if r.Tokens == 0 {
		return 0
	}
	return r.DecodeTime / units.Seconds(r.Tokens)
}

// Engine runs batches on one system/model pair.
type Engine struct {
	Sys *design.System
	Cfg model.Config
	Opt Options

	rng *rand.Rand

	// puCache/pimCache/draftCache memoize the engine's kernel pricings (see
	// memoFC), filled on first demand per (placement, n).
	puCache    []fcCost
	pimCache   []fcCost
	draftCache draftPrice

	// otherBase is the fixed per-iteration overhead: sampling/gather plus
	// the policy's decision latency (hoisted so the decode loop skips a type
	// assertion per iteration; both are constants of the engine).
	otherBase units.Seconds

	// Constants of the decode window's pricing and charging (priceWindow,
	// attnAt and Stepper.charge), hoisted at construction. Every one is a
	// product of integer-valued floats far below 2⁵³, so folding them does
	// not change any result bit: layersF is the layer count, attnOvh the
	// per-iteration attention kernel overheads, attnFlopsCoef/attnActTerm
	// the per-ΣkvLen / per-request attention-kernel coefficients, and *W
	// the idle/standby power products.
	layersF       float64
	attnOvh       units.Seconds
	attnFlopsCoef float64
	attnActTerm   float64
	gpuIdleW      units.Watts
	fcStandbyW    units.Watts
	attnStandbyW  units.Watts
}

// traceCap bounds the per-iteration traces kept in a Result.
const traceCap = 4096

// New validates and builds an engine.
func New(sys *design.System, cfg model.Config, opt Options) (*Engine, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := sys.FitsModel(cfg); err != nil {
		return nil, err
	}
	e := &Engine{Sys: sys, Cfg: cfg, Opt: opt}
	// Every iteration pays fixed work (sampling, token gathering, embedding
	// lookups), and search-based placement policies add their decision
	// latency on the critical path (§8's SpecPIM argument); PAPI's
	// predictor is free.
	e.otherBase = units.Microseconds(120)
	if cp, ok := sys.Policy.(sched.CostedPolicy); ok {
		e.otherBase += cp.DecisionCost()
	}
	e.layersF = float64(cfg.Layers)
	e.attnOvh = sys.AttnPIM.KernelOverhead.Scale(e.layersF - 1)
	h := float64(cfg.Hidden)
	e.attnFlopsCoef = 4 * float64(opt.TLP)
	e.attnActTerm = float64(opt.TLP) * 4 * h * model.BytesPerElement
	if sys.GPU != nil {
		e.gpuIdleW = sys.GPU.Spec.IdlePower.Scale(float64(sys.GPU.Count))
	}
	if sys.FCPIM != nil {
		e.fcStandbyW = sys.FCPIM.Energy.StaticW.Scale(float64(sys.FCPIM.Count))
	}
	e.attnStandbyW = sys.AttnPIM.Energy.StaticW.Scale(float64(sys.AttnPIM.Count))
	return e, nil
}

// request tracks one in-flight request's decode progress, and owns its
// latency record (see observe and metrics).
type request struct {
	workload.Request
	generated  int
	iterations int
	// readyAt orders the pending queue: the request's arrival, or — after a
	// preemption — the instant it was evicted and requeued. Never before
	// Arrival, so admission eligibility is unchanged for fresh requests.
	readyAt units.Seconds
	// preempted counts how many times the request was evicted from the
	// active batch (batch-class requests only).
	preempted int
	// ttft and completion are the ends of the iterations that committed the
	// request's first and latest tokens, measured from its epoch: run start
	// for a static batch, its arrival in a stream.
	ttft, completion units.Seconds
	// lease is the request's hold on the block store (nil without one),
	// reused with the record; kvBytes is its cached worst-case KV footprint
	// — the demand-signal contribution, fixed at creation (with the resident
	// shared prefix already discounted under a store) so every incremental
	// ± returns the running sums to zero exactly.
	lease   *kv.Lease
	kvBytes units.Bytes
	// next links a completed record into its stepper's free list (see
	// Stepper.free).
	next *request
}

// contextLen is the KV length the request occupies on (re-)admission: its
// prompt plus every token already generated. A preempted request lost its KV
// cache, so re-admission re-prefills the full grown context.
func (r *request) contextLen() int { return r.InputLen + r.generated }

// RunBatch executes one statically-batched inference: prefill for the whole
// batch, then decode iterations until every request has produced its output
// (requests finishing early shrink RLP, as in Fig. 3). It is a convenience
// wrapper over NewBatchStepper that drives the stepper to completion.
func (e *Engine) RunBatch(reqs []workload.Request) (Result, error) {
	st, err := e.NewBatchStepper(reqs)
	if err != nil {
		return Result{}, err
	}
	return st.run()
}

// live filters unfinished requests — those still owing output — in place
// (the stepper owns the backing array) so the per-step path stays
// allocation-free; the vacated tail is cleared so finished requests do not
// stay reachable. A discarding stepper puts each finished record on its
// free list for newRequest to reuse: the record is committed, and its
// Completion is already a copy.
func (s *Stepper) live(all []*request) []*request {
	out := all[:0]
	for _, r := range all {
		if r.generated < r.OutputLen {
			out = append(out, r)
		} else if s.discarding() {
			r.next, s.free = s.free, r
		}
	}
	for i := len(out); i < len(all); i++ {
		all[i] = nil
	}
	return out
}

// checkKVCapacity rejects batches whose worst-case KV footprint exceeds the
// attention pool (§3.2(b)'s memory-capacity limit surfaces as a typed error).
func (e *Engine) checkKVCapacity(reqs []workload.Request) error {
	var need units.Bytes
	for _, r := range reqs {
		need += e.Cfg.KVBytes(r.SeqLen())
	}
	if cap := e.Sys.KVCapacity(); need > cap {
		return fmt.Errorf("serving: batch KV footprint %v exceeds attention pool capacity %v", need, cap)
	}
	return nil
}

// runPrefill executes the prefill phase and charges its energy.
func (e *Engine) runPrefill(prefill model.Prefill, res *Result) units.Seconds {
	k := e.Cfg.PrefillWork(prefill)
	if e.Sys.PrefillOnGPU {
		g := e.Sys.GPU.Execute(k.Flops, k.WeightBytes)
		res.Energy.Add(energy.GPUActive, g.Energy)
		e.chargePIMIdle(g.Time, res)
		return g.Time
	}
	p := e.Sys.FCPIM.Execute(pim.Kernel{Name: "prefill", Class: pim.ClassFC, Flops: k.Flops, UniqueBytes: k.WeightBytes}, 0)
	res.Throttled = res.Throttled || p.Throttled
	res.Energy.Add(energy.FCPIM, p.Energy.Total())
	return p.Time
}

// chargePIMIdle charges standby power on all PIM pools for span (used during
// prefill, when PIM is idle).
func (e *Engine) chargePIMIdle(span units.Seconds, res *Result) {
	if e.Sys.FCPIM != nil {
		res.Energy.Add(energy.FCPIM, e.fcStandbyW.Energy(span))
	}
	res.Energy.Add(energy.AttnPIM, e.attnStandbyW.Energy(span))
}

// acceptanceRate is β, the per-token probability that the target model
// accepts a draft token.
const acceptanceRate = 0.8

// accepted draws one speculative iteration's outcome for one request: the
// accepted prefix of the TLP drafted tokens, whose length follows the
// per-token acceptance chain (§2.2.2), before the request's remaining output
// caps it.
func (e *Engine) accepted() int {
	if e.rng == nil {
		// Seeded lazily: TLP = 1 engines never sample, and seeding the
		// legacy source is expensive enough to show up when a sweep builds
		// hundreds of replicas.
		e.rng = rand.New(rand.NewSource(e.Opt.Seed))
	}
	n := 1
	for n < e.Opt.TLP && e.rng.Float64() < acceptanceRate {
		n++
	}
	return n
}
