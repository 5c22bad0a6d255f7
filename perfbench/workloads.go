package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"github.com/papi-sim/papi"
	"github.com/papi-sim/papi/internal/cluster"
)

// workload is one of the benchmark's seeded traffic shapes.
type workload struct {
	name string
	// gen builds the workload's unit from inputs drawn from the seed. It runs
	// once per process, outside every measured region (bench.gen_s).
	gen func(seed int64) (unit, error)
}

var workloads = []workload{
	{name: "fleet-scale", gen: func(seed int64) (unit, error) { return newFleetScale(seed, fleetScaleRequests) }},
	{name: "chat-kv", gen: func(seed int64) (unit, error) { return newChatKV(seed, chatKVConversations) }},
	{name: "faults-elastic", gen: func(seed int64) (unit, error) { return newFaultsElastic(seed, faultsRequests) }},
	{name: "paper-grid", gen: func(seed int64) (unit, error) { return newPaperGrid(seed, paperGridPasses) }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unit is one repeatable pass over a workload's generated inputs.
type unit interface {
	// sent is how many simulated requests one pass sends.
	sent() int
	// run makes one pass. It calls mark once, just before the first
	// simulated step, and records layer activity into tr when tr is non-nil.
	run(mark func(), tr *unitTrace) (*outcome, error)
}

// driller is a unit with a serving drill: after a traced pass it re-drives
// the pass's work through the serving layer directly, timing every Step.
type driller interface {
	drill(out *outcome, tr *unitTrace, d *drillStats) error
}

// outcome is one pass's simulated result.
type outcome struct {
	sent, completed, simFailed int
	digest                     [32]byte
	counts                     layerCounts
	// result is what the pass returned, kept referenced until the harness
	// has measured the heap it retains.
	result any
	// cells are paper-grid's per-cell digests, which its drill reproduces.
	cells [][32]byte
}

// layerCounts are the simulated activity counts the per-layer metrics
// report. They are outputs of the simulation, identical on every pass.
type layerCounts struct {
	replicasBooted, scaleEvents, faults, retries, failedRequests, shedArrivals int
	iterations, preemptions, reprefillTokens, reschedules                      int
	kvLookups, kvHits, kvShared                                                int
	kvPromoted, kvDemoted, kvEvicted                                           int
	kvTransferBytes                                                            float64
}

func (c *layerCounts) addResult(r *papi.Result) {
	c.iterations += r.Iterations
	c.preemptions += r.Preemptions
	c.reprefillTokens += r.ReprefillTokens
	c.reschedules += r.Reschedules
	if kv := r.KV; kv != nil {
		c.kvLookups += kv.Lookups
		c.kvHits += kv.Hits
		c.kvShared += kv.SharedTokens
		c.kvPromoted += kv.PromotedBlocks
		c.kvDemoted += kv.DemotedBlocks
		c.kvEvicted += kv.EvictedBlocks
		c.kvTransferBytes += kv.TransferBytes.Bytes()
	}
}

// fleetOutcome digests a fleet run: its checkpoint (counters and latency
// sketches) plus every replica's iterations, tokens and energy.
func fleetOutcome(f *papi.FleetResult, sent int) (*outcome, error) {
	data, err := f.Checkpoint().Export()
	if err != nil {
		return nil, fmt.Errorf("exporting the checkpoint: %w", err)
	}
	h := sha256.New()
	h.Write(data)
	out := &outcome{sent: sent, completed: f.Completed, simFailed: len(f.FailedRequests), result: f}
	for k := range f.Replicas {
		r := &f.Replicas[k]
		fmt.Fprintf(h, "replica %d: %d iterations, %d tokens, %x J\n",
			k, r.Iterations, r.Tokens, math.Float64bits(r.Energy.Total().Joules()))
		out.counts.addResult(r)
	}
	h.Sum(out.digest[:0])
	out.counts.replicasBooted = len(f.Replicas)
	out.counts.scaleEvents = len(f.ScaleEvents)
	out.counts.faults = f.Faults
	out.counts.retries = f.Retries
	out.counts.failedRequests = len(f.FailedRequests)
	out.counts.shedArrivals = f.ShedArrivals
	return out, nil
}

// fleetRun times one fleet entry-point call as the traced unit's run span.
func fleetRun(tr *unitTrace, call func() (*papi.FleetResult, error)) (*papi.FleetResult, error) {
	if tr == nil {
		return call()
	}
	end := tr.begin(spanRun)
	f, err := call()
	tr.runNs += end()
	return f, err
}

// fleet-scale: BenchmarkMillionRequest's shape at a size a run can repeat.

const (
	fleetScaleRequests = 250_000
	fleetScaleReplicas = 100
	fleetScaleMaxBatch = 8
	// tiered-diurnal's native cadence is ~20 req/s; compressing the day to
	// this rate keeps 100 replicas saturated instead of idle.
	fleetScaleRate = 2500
)

type fleetScale struct{ reqs []papi.Request }

func newFleetScale(seed int64, n int) (*fleetScale, error) {
	sc, err := papi.ScenarioByName("tiered-diurnal")
	if err != nil {
		return nil, err
	}
	reqs := make([]papi.Request, 0, n)
	err = sc.Each(n, seed, func(r papi.Request) bool {
		r.Arrival = papi.Seconds(r.Arrival.Seconds() * 20 / fleetScaleRate)
		reqs = append(reqs, r)
		return true
	})
	return &fleetScale{reqs: reqs}, err
}

func (w *fleetScale) sent() int { return len(w.reqs) }

func (w *fleetScale) options(mark func(), tr *unitTrace) papi.ClusterOptions {
	return papi.ClusterOptions{
		Replicas: fleetScaleReplicas,
		MaxBatch: fleetScaleMaxBatch,
		Router:   &router{Router: papi.LeastOutstanding(), mark: mark, tr: tr},
		Serving:  papi.DefaultOptions(1),
		Shards:   runtime.GOMAXPROCS(0),
		// The sketch drill feeds on the per-request records.
		RetainRequests: tr != nil,
	}
}

func (w *fleetScale) run(mark func(), tr *unitTrace) (*outcome, error) {
	c, err := papi.NewClusterByName("PAPI", papi.OPT30B(), w.options(mark, tr))
	if err != nil {
		return nil, err
	}
	i := 0
	next := func() (papi.Request, bool) {
		if i == len(w.reqs) {
			return papi.Request{}, false
		}
		i++
		return w.reqs[i-1], true
	}
	if tr != nil {
		next = tr.source(next)
	}
	f, err := fleetRun(tr, func() (*papi.FleetResult, error) { return c.RunSeq(next) })
	if err != nil {
		return nil, err
	}
	return fleetOutcome(f, len(w.reqs))
}

// chat-kv: closed-loop conversations over block-KV sharing.

const (
	chatKVConversations = 20_000
	chatKVReplicas      = 4
	chatKVMaxBatch      = 8
)

type chatKV struct {
	convs []papi.Conversation
	turns int
}

func newChatKV(seed int64, n int) (*chatKV, error) {
	sc, err := papi.ScenarioByName("chat-multiturn")
	if err != nil {
		return nil, err
	}
	convs, err := sc.Plan(n, seed)
	if err != nil {
		return nil, err
	}
	w := &chatKV{convs: convs}
	for _, c := range convs {
		w.turns += len(c.Turns)
	}
	return w, nil
}

func (w *chatKV) sent() int { return w.turns }

// singleStack is the kvcache figure's design: the registry PAPI spec with
// its attention pool cut to one stack, so the KV tiers are under pressure.
func singleStack() (papi.DesignSpec, error) {
	spec, err := papi.DesignByName("PAPI")
	if err != nil {
		return spec, err
	}
	pool := *spec.AttnPIM
	pool.Count = 1
	spec.AttnPIM = &pool
	spec.Name = "PAPI-1stack"
	return spec, nil
}

func (w *chatKV) run(mark func(), tr *unitTrace) (*outcome, error) {
	spec, err := singleStack()
	if err != nil {
		return nil, err
	}
	kv := papi.DefaultKVOptions()
	kv.BlockTokens, kv.Sharing, kv.ColdFactor = 32, true, 4
	opt := papi.DefaultOptions(4)
	opt.KV = &kv
	c, err := papi.NewClusterFromSpecs([]papi.DesignSpec{spec}, papi.OPT30B(), papi.ClusterOptions{
		Replicas: chatKVReplicas,
		MaxBatch: chatKVMaxBatch,
		Router:   &router{Router: papi.LeastOutstanding(), mark: mark, tr: tr},
		Serving:  opt,
	})
	if err != nil {
		return nil, err
	}
	f, err := fleetRun(tr, func() (*papi.FleetResult, error) { return c.RunPlan(w.convs) })
	if err != nil {
		return nil, err
	}
	return fleetOutcome(f, w.turns)
}

// faults-elastic: an autoscaled fleet under a seeded fault plan.

const (
	faultsRequests  = 50_000
	faultsInitial   = 4
	faultsMin       = 2
	faultsMax       = 8
	faultsMaxBatch  = 16
	faultsBrownouts = 6
	// faultsStrikes is how many instants get a crash (on the busiest live
	// replica) and a straggler window (on the idlest other one).
	faultsStrikes = 6
)

type faultsElastic struct {
	reqs []papi.Request
	plan papi.FaultPlan
}

func newFaultsElastic(seed int64, n int) (*faultsElastic, error) {
	sc, err := papi.ScenarioByName("tiered-diurnal")
	if err != nil {
		return nil, err
	}
	reqs, err := sc.Requests(n, seed)
	if err != nil {
		return nil, err
	}
	w := &faultsElastic{reqs: reqs}
	return w, w.drawPlan(seed)
}

func (w *faultsElastic) sent() int { return len(w.reqs) }

func (w *faultsElastic) options(r papi.Router, plan *papi.FaultPlan) papi.ClusterOptions {
	return papi.ClusterOptions{
		Replicas:     faultsInitial,
		MaxBatch:     faultsMaxBatch,
		Router:       r,
		Serving:      papi.DefaultOptions(1),
		Autoscale:    papi.DefaultAutoscale(faultsMin, faultsMax, papi.SLO{TokenLatency: 0.012}),
		Faults:       plan,
		Retries:      3,
		RetryBackoff: 0.05,
		Timeout:      60,
		Shards:       runtime.GOMAXPROCS(0),
	}
}

func (w *faultsElastic) run(mark func(), tr *unitTrace) (*outcome, error) {
	r := &router{Router: papi.LeastOutstanding(), mark: mark, tr: tr}
	c, err := papi.NewClusterByName("PAPI", papi.LLaMA65B(), w.options(r, &w.plan))
	if err != nil {
		return nil, err
	}
	f, err := fleetRun(tr, func() (*papi.FleetResult, error) { return c.Run(w.reqs) })
	if err != nil {
		return nil, err
	}
	return fleetOutcome(f, len(w.reqs))
}

// drawPlan draws the seeded fault schedule. Brownouts are fleet-wide, so
// their instants are drawn blind. Crashes and stragglers name a replica, and
// the autoscaler hands out replica IDs as it boots, so a blind target would
// mostly name one already stopped or not yet booted. Each strike instant is
// therefore placed just after an interactive arrival (never shed, so always
// routed on time) and aimed at the replicas the router saw live there, in a
// rehearsal of the stream up to that arrival under every fault placed so
// far. The simulation is causal, so the full run reaches the same state at
// that instant, and every crash lands on a live replica.
func (w *faultsElastic) drawPlan(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := len(w.reqs)
	span := w.reqs[n-1].Arrival.Seconds()
	window := func() (float64, float64) { return 2 + rng.ExpFloat64()*8, 2 + 2*rng.Float64() }

	plan := papi.FaultPlan{Name: fmt.Sprintf("faults-elastic-%d", seed), Seed: seed}
	for i := 0; i < faultsBrownouts; i++ {
		d, f := window()
		at := span * (0.05 + 0.9*rng.Float64())
		plan.Faults = append(plan.Faults, papi.Fault{Kind: papi.FaultBrownout, At: at, Duration: d, Factor: f})
	}
	for i := 0; i < faultsStrikes; i++ {
		// One strike per equal slice of the stream, at a seeded arrival.
		lo := n * (2*i + 1) / (2*faultsStrikes + 1)
		j := lo + rng.Intn(n/(2*faultsStrikes+1))
		for j < n-1 && w.reqs[j].Class != papi.ClassInteractive {
			j++
		}
		live, err := w.rehearse(plan, j)
		if err != nil {
			return fmt.Errorf("rehearsing the fault plan: %w", err)
		}
		if len(live) < 2 {
			continue
		}
		at := w.reqs[j].Arrival.Seconds() + 1e-6
		busiest, idlest := live[0], live[len(live)-1]
		d, f := window()
		plan.Faults = append(plan.Faults,
			papi.Fault{Kind: papi.FaultCrash, Replica: busiest.id, At: at},
			papi.Fault{Kind: papi.FaultStraggler, Replica: idlest.id, At: at, Duration: d, Factor: f})
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool { return plan.Faults[i].At < plan.Faults[j].At })
	w.plan = plan
	return nil
}

// liveReplica is one routable replica as a routing decision saw it.
type liveReplica struct{ id, outstanding int }

// rehearse runs the stream up to request j under plan and returns the
// replicas the router could choose from when j arrived, busiest first.
func (w *faultsElastic) rehearse(plan papi.FaultPlan, j int) ([]liveReplica, error) {
	spy := &rehearsalRouter{Router: papi.LeastOutstanding(), id: w.reqs[j].ID}
	c, err := papi.NewClusterByName("PAPI", papi.LLaMA65B(), w.options(spy, &plan))
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(w.reqs[:j+1]); err != nil {
		return nil, err
	}
	sort.SliceStable(spy.live, func(a, b int) bool {
		if spy.live[a].outstanding != spy.live[b].outstanding {
			return spy.live[a].outstanding > spy.live[b].outstanding
		}
		return spy.live[a].id < spy.live[b].id
	})
	return spy.live, nil
}

// rehearsalRouter records the routable replicas at request id's first
// routing decision.
type rehearsalRouter struct {
	papi.Router
	id   int
	seen bool
	live []liveReplica
}

func (r *rehearsalRouter) Route(req papi.Request, reps []*cluster.Replica) int {
	if req.ID == r.id && !r.seen {
		r.seen = true
		for _, rep := range reps {
			r.live = append(r.live, liveReplica{rep.ID, rep.Outstanding()})
		}
	}
	return r.Router.Route(req, reps)
}

// paper-grid: the Fig. 8/9 offline grid, a fresh engine per cell.

// paperGridPasses is how many times a unit walks the grid, each time over
// fresh batches.
const paperGridPasses = 4

var (
	gridTLPs    = []int{1, 2, 4}
	gridBatches = []int{4, 16, 64}
)

// gridGroup is one (model, TLP, batch) point of a pass; every design runs
// the same batch, as in the figures.
type gridGroup struct {
	cfg  papi.Model
	tlp  int
	reqs []papi.Request
}

type paperGrid struct {
	groups []gridGroup
	total  int
}

func newPaperGrid(seed int64, passes int) (*paperGrid, error) {
	// Each group draws its own batch: the grid's cost follows its longest
	// outputs, so a unit averages over many draws rather than a handful.
	rng := rand.New(rand.NewSource(seed))
	designs := len(papi.DesignNames())
	w := &paperGrid{}
	for p := 0; p < passes; p++ {
		for _, cfg := range []papi.Model{papi.LLaMA65B(), papi.GPT3_66B(), papi.GPT3_175B()} {
			for _, ds := range []papi.Dataset{papi.CreativeWriting(), papi.GeneralQA()} {
				for _, tlp := range gridTLPs {
					for _, b := range gridBatches {
						w.groups = append(w.groups, gridGroup{cfg: cfg, tlp: tlp, reqs: ds.Generate(b, rng.Int63())})
						w.total += b * designs
					}
				}
			}
		}
	}
	return w, nil
}

func (w *paperGrid) sent() int { return w.total }

// gridCell is one cell of the grid, in run order.
type gridCell struct {
	gridGroup
	sys *papi.System
}

// cells lists the unit's cells over the given systems, in run order.
func (w *paperGrid) cells(systems []*papi.System) []gridCell {
	out := make([]gridCell, 0, len(w.groups)*len(systems))
	for _, g := range w.groups {
		for _, sys := range systems {
			out = append(out, gridCell{gridGroup: g, sys: sys})
		}
	}
	return out
}

// gridSystems builds the five evaluated designs.
func gridSystems() ([]*papi.System, error) {
	var out []*papi.System
	for _, name := range papi.DesignNames() {
		sys, err := papi.SystemByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sys)
	}
	return out, nil
}

func (w *paperGrid) run(mark func(), tr *unitTrace) (*outcome, error) {
	systems, err := gridSystems()
	if err != nil {
		return nil, err
	}
	cells := w.cells(systems)
	mark()
	var endGrid func() int64
	if tr != nil {
		endGrid = tr.begin(spanGrid)
	}
	results := make([]papi.Result, len(cells))
	for i, c := range cells {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		eng, err := papi.NewEngine(c.sys, c.cfg, papi.DefaultOptions(c.tlp))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			t1 := tr.now()
			tr.newNs += t1 - t0
			tr.leaf(spanNew, -1, t0, t1)
			t0 = t1
		}
		if results[i], err = eng.RunBatch(c.reqs); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.leaf(spanRunBatch, -1, t0, tr.now())
		}
	}
	if tr != nil {
		endGrid()
	}
	return gridOutcome(cells, results, w.total)
}

// gridOutcome digests every cell's Result and balances the ledger: a
// request completed when its record shows every output token generated.
func gridOutcome(cells []gridCell, results []papi.Result, sent int) (*outcome, error) {
	out := &outcome{sent: sent, result: results, cells: make([][32]byte, len(cells))}
	h := sha256.New()
	for i := range results {
		r := &results[i]
		d, err := resultDigest(r)
		if err != nil {
			return nil, err
		}
		out.cells[i] = d
		h.Write(d[:])
		out.counts.addResult(r)
		for j, rm := range r.Requests {
			if j < len(cells[i].reqs) && rm.OutputTokens == cells[i].reqs[j].OutputLen {
				out.completed++
			}
		}
	}
	h.Sum(out.digest[:0])
	return out, nil
}

// resultDigest hashes one Result: its JSON form, plus the energy ledger,
// whose fields JSON cannot see, component by component.
func resultDigest(r *papi.Result) ([32]byte, error) {
	var d [32]byte
	data, err := json.Marshal(r)
	if err != nil {
		return d, err
	}
	h := sha256.New()
	h.Write(data)
	for _, c := range r.Energy.Components() {
		fmt.Fprintf(h, "%v=%x;", c, math.Float64bits(r.Energy.Get(c).Joules()))
	}
	h.Sum(d[:0])
	return d, nil
}
