package cluster

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// tieredStream draws the tiered-diurnal scenario's open-loop stream: day-curve
// arrivals over a 65/35 interactive/batch mix — the traffic shape the
// autoscaler exists for.
func tieredStream(t *testing.T, n int, seed int64) []workload.Request {
	t.Helper()
	sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sc.Requests(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// autoscaledFleet builds the elastic PAPI fleet the autoscaler tests share,
// on the given number of shards.
func autoscaledFleet(t *testing.T, shards int) *Cluster {
	t.Helper()
	cl, err := NewByName("PAPI", model.OPT30B(), Options{
		Replicas:  1,
		MaxBatch:  6,
		Router:    LeastOutstanding(),
		Serving:   serving.DefaultOptions(1),
		Autoscale: DefaultAutoscale(1, 4, workload.SLO{TokenLatency: units.Milliseconds(8)}),
		Shards:    shards,

		RetainRequests: true,
		RetainStream:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func runAutoscaled(t *testing.T, reqs []workload.Request) *FleetResult {
	t.Helper()
	f, err := autoscaledFleet(t, 1).Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The elastic control loop must react to the day curve: grow the fleet at
// the peak, drain it back through the trough, and stay within bounds.
func TestAutoscaleScalesWithLoad(t *testing.T) {
	f := runAutoscaled(t, tieredStream(t, 160, 7))

	ups, drains, stops := 0, 0, 0
	for _, ev := range f.ScaleEvents {
		switch ev.Action {
		case ScaleUp:
			ups++
		case ScaleDrain:
			drains++
		case ScaleStop:
			stops++
		}
		if ev.Active > 4 {
			t.Fatalf("event %+v exceeds the max-replica bound", ev)
		}
	}
	if ups == 0 {
		t.Fatal("peak load never triggered a scale-up")
	}
	if drains == 0 || stops == 0 {
		t.Fatalf("trough never drained a replica (drains %d, stops %d)", drains, stops)
	}
	if f.PeakReplicas <= 1 || f.PeakReplicas > 4 {
		t.Fatalf("peak replicas = %d, want in (1, 4]", f.PeakReplicas)
	}
	// Elasticity must show in the provisioned capacity-time: strictly less
	// than keeping the peak fleet on for the whole run.
	if f.ReplicaSeconds >= units.Seconds(float64(f.PeakReplicas))*f.Makespan {
		t.Fatalf("replica-seconds %v not below peak provisioning %v × %v",
			f.ReplicaSeconds, f.PeakReplicas, f.Makespan)
	}
	if f.ReplicaSeconds < f.Makespan {
		t.Fatalf("replica-seconds %v below one always-on replica (makespan %v)",
			f.ReplicaSeconds, f.Makespan)
	}
}

// A fixed seed must reproduce the identical elastic run — scale events,
// energy, latency digests, everything.
func TestAutoscaleDeterministic(t *testing.T) {
	a := runAutoscaled(t, tieredStream(t, 120, 11))
	b := runAutoscaled(t, tieredStream(t, 120, 11))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("autoscaled runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// Free-running decode windows bounded by the arrival and tick horizon must
// leave an autoscaled tiered fleet bit-identical to the time-order
// reference driver, which steps every replica one iteration at a time.
func TestAutoscaleFastPathEquivalence(t *testing.T) {
	build := func(shards int) *Cluster { return autoscaledFleet(t, shards) }
	ref := matchDrivers(t, "autoscaled fleet", build, tieredStream(t, 120, 13), nil, 2)
	if len(ref.ScaleEvents) == 0 {
		t.Fatal("the fleet never scaled: the equivalence pin is vacuous")
	}
}

// Draining is graceful: every drained replica powers off only after its
// in-flight work completes, and every completed request still lands in the
// fleet metrics exactly once.
func TestAutoscaleDrainIsGraceful(t *testing.T) {
	reqs := tieredStream(t, 160, 7)
	f := runAutoscaled(t, reqs)
	if len(f.Requests) != len(reqs) {
		t.Fatalf("%d of %d requests accounted", len(f.Requests), len(reqs))
	}
	stopAt := map[int]units.Seconds{}
	for _, ev := range f.ScaleEvents {
		if ev.Action == ScaleStop {
			stopAt[ev.Replica] = ev.At
		}
	}
	if len(stopAt) == 0 {
		t.Skip("run produced no stops to validate")
	}
	// A stopped replica's serving result is frozen at its power-off instant:
	// its busy+idle span cannot extend past the stop.
	for id, at := range stopAt {
		res := f.Replicas[id]
		if got := res.TotalTime(); got > at+units.Seconds(1e-9) {
			t.Errorf("replica %d accrued %v of powered time but stopped at %v", id, got, at)
		}
	}
}

// Closed-loop plans work under autoscaling: follow-ups stick to the replica
// holding their conversation's KV state, so a replica is never drained —
// let alone stopped — while a conversation it hosts is still live, and
// every turn completes.
func TestAutoscaleClosedLoop(t *testing.T) {
	sc, err := workload.ScenarioByName(workload.ScenarioChatMultiTurn)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan(16, 31)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewByName("PAPI", model.OPT30B(), Options{
		Replicas:  2,
		MaxBatch:  6,
		Router:    LeastOutstanding(),
		Serving:   serving.DefaultOptions(1),
		Autoscale: DefaultAutoscale(1, 3, workload.SLO{TokenLatency: units.Milliseconds(8)}),

		RetainRequests: true,
		RetainStream:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cl.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Requests) != workload.TotalTurns(plan) {
		t.Fatalf("%d of %d turns completed", len(fast.Requests), workload.TotalTurns(plan))
	}
	// No replica may serve a request after its recorded stop instant.
	stopAt := map[int]units.Seconds{}
	for _, ev := range fast.ScaleEvents {
		if ev.Action == ScaleStop {
			stopAt[ev.Replica] = ev.At
		}
	}
	for id, at := range stopAt {
		if got := fast.Replicas[id].TotalTime(); got > at+units.Seconds(1e-9) {
			t.Errorf("replica %d accrued %v of powered time but stopped at %v", id, got, at)
		}
	}
}

// Static fleets must be unaffected by the elastic machinery: no scale
// events, peak = provisioned count, replica-seconds = replicas × makespan.
func TestStaticFleetElasticAccounting(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(30, 40, 3)
	opt := serving.DefaultOptions(1)
	cl, err := NewByName("PAPI", model.OPT30B(), Options{
		Replicas: 2, MaxBatch: 6, Router: LeastOutstanding(), Serving: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if f.ScaleEvents != nil {
		t.Fatalf("static fleet recorded scale events: %+v", f.ScaleEvents)
	}
	if f.PeakReplicas != 2 {
		t.Fatalf("static peak replicas = %d, want 2", f.PeakReplicas)
	}
	if want := 2 * f.Makespan; f.ReplicaSeconds != want {
		t.Fatalf("static replica-seconds = %v, want %v", f.ReplicaSeconds, want)
	}
}
