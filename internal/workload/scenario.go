package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/papi-sim/papi/internal/units"
)

// WeightedDataset is one component of a scenario's length mix. Class tags
// every request drawn from the component with a priority class, so a tiered
// scenario can mix latency-bound interactive traffic with preemptible batch
// work in one stream (zero value: interactive).
type WeightedDataset struct {
	Dataset Dataset
	Weight  float64
	Class   Class
}

// ThinkTimeDist is a clamped log-normal over user think time — the gap
// between an answer completing and the follow-up question arriving.
type ThinkTimeDist struct {
	Median units.Seconds
	Sigma  float64
	Min    units.Seconds
	Max    units.Seconds
}

// Sample draws one think time.
func (d ThinkTimeDist) Sample(rng *rand.Rand) units.Seconds {
	v := units.Seconds(math.Exp(math.Log(d.Median.Seconds()) + d.Sigma*rng.NormFloat64()))
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return v
}

// MultiTurnSpec shapes closed-loop conversations: how many turns each
// conversation runs, how long the user thinks between turns, and how many
// new prompt tokens each follow-up adds on top of the grown context.
type MultiTurnSpec struct {
	// MinTurns and MaxTurns bound the uniformly sampled turn count (≥ 1).
	MinTurns, MaxTurns int
	// Think is the per-gap user think time.
	Think ThinkTimeDist
	// FollowUpInput is the NEW prompt tokens a follow-up turn adds. The
	// engine-facing input of turn k is the full grown context — every prior
	// turn's input and output plus these new tokens — so the KV footprint
	// and attention cost compound turn over turn.
	FollowUpInput LengthDist
}

// Turn is one pre-sampled conversation turn. Input is the new prompt tokens
// only; the closed-loop driver in internal/cluster expands it to the full
// grown context when it pushes the request.
type Turn struct {
	Input  int
	Output int
	// Think is the gap between the previous turn completing and this turn
	// arriving (zero for the first turn).
	Think units.Seconds
}

// Conversation is one pre-sampled closed-loop conversation: everything about
// it is fixed up front except the arrival instants of turns ≥ 2, which
// depend on when the simulated engine finishes the preceding answers. That
// split is what keeps closed-loop scenarios deterministic for a fixed seed
// while still coupling arrivals to simulated service times.
type Conversation struct {
	ID      int
	Arrival units.Seconds // first-turn arrival
	Turns   []Turn
}

// TotalTurns sums the turn counts of a conversation plan.
func TotalTurns(convs []Conversation) int {
	n := 0
	for _, c := range convs {
		n += len(c.Turns)
	}
	return n
}

// Scenario is a named workload regime: an arrival process crossed with a
// length mix, optionally closed-loop (multi-turn). Scenarios are the
// vocabulary the experiment drivers and CLIs share; the registry below names
// the regimes the evaluation sweeps.
type Scenario struct {
	Name        string
	Description string
	// Mix is the length mixture; each request samples one component by
	// weight. A single-element mix reproduces the plain datasets.
	Mix []WeightedDataset
	// NewArrivals builds a fresh arrival process per generation pass
	// (processes may be stateful).
	NewArrivals func() ArrivalProcess
	// MultiTurn marks the scenario closed-loop; open-loop scenarios leave it
	// nil. Closed-loop scenarios generate conversation plans (Plan), not
	// request streams (Requests).
	MultiTurn *MultiTurnSpec
}

// ClosedLoop reports whether the scenario's arrivals depend on completions.
func (s Scenario) ClosedLoop() bool { return s.MultiTurn != nil }

// pick samples one mix component by weight.
func (s Scenario) pick(rng *rand.Rand) WeightedDataset {
	if len(s.Mix) == 1 {
		return s.Mix[0]
	}
	total := 0.0
	for _, w := range s.Mix {
		total += w.Weight
	}
	x := rng.Float64() * total
	for _, w := range s.Mix {
		x -= w.Weight
		if x < 0 {
			return w
		}
	}
	return s.Mix[len(s.Mix)-1]
}

// Requests draws an open-loop stream of n requests deterministically from
// the seed. Closed-loop scenarios have no open-loop stream — use Plan.
func (s Scenario) Requests(n int, seed int64) ([]Request, error) {
	if s.ClosedLoop() {
		return nil, fmt.Errorf("workload: scenario %q is closed-loop; generate a conversation plan with Plan", s.Name)
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: scenario %q request count %d must be positive", s.Name, n)
	}
	rng := rand.New(rand.NewSource(seed))
	proc := s.NewArrivals()
	times := ArrivalTimes(proc, n, rng)
	reqs := make([]Request, n)
	for i := range reqs {
		w := s.pick(rng)
		reqs[i] = Request{
			ID:        i,
			InputLen:  w.Dataset.Input.Sample(rng),
			OutputLen: w.Dataset.Output.Sample(rng),
			Arrival:   times[i],
			Class:     w.Class,
		}
	}
	return reqs, nil
}

// Each streams an open-loop request sequence one request at a time, in
// arrival order, without ever materialising the slice — the generator the
// constant-memory scale paths (cluster.RunSeq, BenchmarkMillionRequest)
// consume, where a million-request stream must not cost a million-request
// buffer. Arrivals are strictly increasing and the sequence is deterministic
// for a fixed (n, seed). yield returning false stops the stream early.
//
// Draw order note: Requests consumes its rng for all n arrivals first and
// only then samples lengths, which a one-at-a-time generator cannot
// reproduce (arrival thinning consumes a data-dependent number of draws).
// Each therefore owns two derived rngs — one for arrivals, one for mix and
// length draws — so Each(n, seed) is its own deterministic stream, not a
// replay of Requests(n, seed). docs/SCALE.md records this contract.
func (s Scenario) Each(n int, seed int64, yield func(Request) bool) error {
	if s.ClosedLoop() {
		return fmt.Errorf("workload: scenario %q is closed-loop; generate a conversation plan with Plan", s.Name)
	}
	if n <= 0 {
		return fmt.Errorf("workload: scenario %q request count %d must be positive", s.Name, n)
	}
	arrRng := rand.New(rand.NewSource(seed))
	lenRng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	proc := s.NewArrivals()
	t := units.Seconds(0)
	for i := 0; i < n; i++ {
		t = proc.NextAfter(t, arrRng)
		w := s.pick(lenRng)
		req := Request{
			ID:        i,
			InputLen:  w.Dataset.Input.Sample(lenRng),
			OutputLen: w.Dataset.Output.Sample(lenRng),
			Arrival:   t,
			Class:     w.Class,
		}
		if !yield(req) {
			return nil
		}
	}
	return nil
}

// Trace realises the scenario as a replayable open-loop trace.
func (s Scenario) Trace(n int, seed int64) (Trace, error) {
	reqs, err := s.Requests(n, seed)
	if err != nil {
		return Trace{}, err
	}
	return NewTrace(s.Name, s.Name, seed, reqs), nil
}

// Plan pre-samples n closed-loop conversations deterministically from the
// seed: first-turn arrivals come from the scenario's arrival process; turn
// counts, per-turn lengths, and think times are fixed up front. Open-loop
// scenarios have no plan — use Requests.
func (s Scenario) Plan(n int, seed int64) ([]Conversation, error) {
	if !s.ClosedLoop() {
		return nil, fmt.Errorf("workload: scenario %q is open-loop; generate a request stream with Requests", s.Name)
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: scenario %q conversation count %d must be positive", s.Name, n)
	}
	mt := s.MultiTurn
	if mt.MinTurns < 1 || mt.MaxTurns < mt.MinTurns {
		return nil, fmt.Errorf("workload: scenario %q has invalid turn bounds [%d, %d]", s.Name, mt.MinTurns, mt.MaxTurns)
	}
	rng := rand.New(rand.NewSource(seed))
	proc := s.NewArrivals()
	times := ArrivalTimes(proc, n, rng)
	convs := make([]Conversation, n)
	for i := range convs {
		ds := s.pick(rng).Dataset
		turns := mt.MinTurns + rng.Intn(mt.MaxTurns-mt.MinTurns+1)
		c := Conversation{ID: i, Arrival: times[i], Turns: make([]Turn, turns)}
		for k := range c.Turns {
			t := Turn{Output: ds.Output.Sample(rng)}
			if k == 0 {
				t.Input = ds.Input.Sample(rng)
			} else {
				t.Input = mt.FollowUpInput.Sample(rng)
				t.Think = mt.Think.Sample(rng)
			}
			c.Turns[k] = t
		}
		convs[i] = c
	}
	return convs, nil
}

// LongContext returns a document-grounded workload: prompts carry thousands
// of context tokens (retrieved passages, files, long documents) and answers
// are moderate. This is the regime L3 (DIMM-PIM) targets — KV footprints
// dominated by the prompt, stressing attention bandwidth and the KV-headroom
// admission limit rather than decode cadence.
func LongContext() Dataset {
	return Dataset{
		Name:   "long-context",
		Input:  LengthDist{Median: 2048, Sigma: 0.5, Min: 512, Max: 6144},
		Output: LengthDist{Median: 256, Sigma: 0.5, Min: 32, Max: 1024},
	}
}

// Registered scenario names, in presentation order.
const (
	ScenarioSteadyQA      = "steady-qa"
	ScenarioBurstCreative = "burst-creative"
	ScenarioDiurnalMixed  = "diurnal-mixed"
	ScenarioChatMultiTurn = "chat-multiturn"
	ScenarioLongCtxHeavy  = "longctx-heavy"
	ScenarioTieredDiurnal = "tiered-diurnal"
)

// Scenarios returns the registry: every named scenario, in presentation
// order. Each call builds fresh values, so callers may not corrupt the
// registry.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        ScenarioSteadyQA,
			Description: "stationary Poisson general-qa traffic — the baseline regime every pre-scenario experiment assumed",
			Mix:         []WeightedDataset{{Dataset: GeneralQA(), Weight: 1}},
			NewArrivals: func() ArrivalProcess { return mustArrivals(NewPoisson(20)) },
		},
		{
			Name:        ScenarioBurstCreative,
			Description: "on-off flash crowds of long creative-writing requests — RLP piles up in bursts, then decays through the lull",
			Mix:         []WeightedDataset{{Dataset: CreativeWriting(), Weight: 1}},
			NewArrivals: func() ArrivalProcess {
				return mustArrivals(NewOnOff(40, 2, units.Seconds(1.5), units.Seconds(4)))
			},
		},
		{
			Name:        ScenarioDiurnalMixed,
			Description: "sinusoidal day-curve rate over a 70/30 qa/creative mix — peak load meets trough idle on one fleet",
			Mix: []WeightedDataset{
				{Dataset: GeneralQA(), Weight: 0.7},
				{Dataset: CreativeWriting(), Weight: 0.3},
			},
			NewArrivals: func() ArrivalProcess {
				return mustArrivals(NewDiurnal(12, 0.8, units.Seconds(20)))
			},
		},
		{
			Name:        ScenarioChatMultiTurn,
			Description: "closed-loop conversations: follow-ups arrive after the previous answer completes and re-use the grown context",
			Mix:         []WeightedDataset{{Dataset: GeneralQA(), Weight: 1}},
			NewArrivals: func() ArrivalProcess { return mustArrivals(NewPoisson(6)) },
			MultiTurn: &MultiTurnSpec{
				MinTurns: 2,
				MaxTurns: 5,
				Think: ThinkTimeDist{
					Median: units.Seconds(2),
					Sigma:  0.5,
					Min:    units.Seconds(0.25),
					Max:    units.Seconds(10),
				},
				FollowUpInput: LengthDist{Median: 32, Sigma: 0.6, Min: 4, Max: 256},
			},
		},
		{
			Name:        ScenarioLongCtxHeavy,
			Description: "low-rate stream of multi-thousand-token-context requests — KV footprint and attention bandwidth dominate",
			Mix:         []WeightedDataset{{Dataset: LongContext(), Weight: 1}},
			NewArrivals: func() ArrivalProcess { return mustArrivals(NewPoisson(4)) },
		},
		{
			Name:        ScenarioTieredDiurnal,
			Description: "day-curve traffic split into priority tiers: interactive qa rides the peak while preemptible batch creative work fills the trough",
			Mix: []WeightedDataset{
				{Dataset: GeneralQA(), Weight: 0.65, Class: ClassInteractive},
				{Dataset: CreativeWriting(), Weight: 0.35, Class: ClassBatch},
			},
			NewArrivals: func() ArrivalProcess {
				return mustArrivals(NewDiurnal(12, 0.8, units.Seconds(20)))
			},
		},
	}
}

// ScenarioNames lists the registered scenario names in presentation order.
func ScenarioNames() []string {
	scs := Scenarios()
	names := make([]string, len(scs))
	for i, s := range scs {
		names[i] = s.Name
	}
	return names
}

// ScenarioByName resolves a registered scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, ScenarioNames())
}
