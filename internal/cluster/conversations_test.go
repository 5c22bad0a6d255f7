package cluster

import (
	"math"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func mustRunPlan(t *testing.T, router Router, replicas int, convs []workload.Conversation) *FleetResult {
	t.Helper()
	c, err := New(newPAPI, model.LLaMA65B(), testOptions(replicas, router))
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.RunPlan(convs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func chatPlan(t *testing.T, n int, seed int64) []workload.Conversation {
	t.Helper()
	sc, err := workload.ScenarioByName(workload.ScenarioChatMultiTurn)
	if err != nil {
		t.Fatal(err)
	}
	convs, err := sc.Plan(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return convs
}

func TestRunPlanCompletesEveryTurn(t *testing.T) {
	convs := chatPlan(t, 12, 42)
	want := workload.TotalTurns(convs)
	f := mustRunPlan(t, LeastOutstanding(), 2, convs)
	if len(f.Requests) != want {
		t.Fatalf("served %d of %d turns", len(f.Requests), want)
	}
	if len(f.Stream) != want {
		t.Fatalf("realised stream holds %d of %d turns", len(f.Stream), want)
	}
	routed := 0
	for _, n := range f.Routed {
		routed += n
	}
	if routed != want {
		t.Fatalf("routed %d of %d turns", routed, want)
	}
}

// Follow-up turns must stick to the replica that holds the conversation's
// KV state. With one conversation per replica under round-robin, each
// replica serves exactly its conversation's turn count.
func TestRunPlanFollowUpsStickToReplica(t *testing.T) {
	convs := chatPlan(t, 2, 42)
	f := mustRunPlan(t, RoundRobin(), 2, convs)
	for i, n := range f.Routed {
		if want := len(convs[i].Turns); n != want {
			t.Fatalf("replica %d served %d turns, want %d (routed %v)", i, n, want, f.Routed)
		}
	}
}

// Each follow-up carries the grown context: all prior turns' inputs and
// outputs plus its own new prompt tokens.
func TestRunPlanGrowsContext(t *testing.T) {
	convs := []workload.Conversation{{
		ID:      0,
		Arrival: units.Seconds(0.01),
		Turns: []workload.Turn{
			{Input: 10, Output: 4},
			{Input: 5, Output: 4, Think: units.Seconds(0.5)},
			{Input: 5, Output: 4, Think: units.Seconds(0.5)},
		},
	}}
	f := mustRunPlan(t, RoundRobin(), 1, convs)
	wantInputs := []int{10, 10 + 4 + 5, 10 + 4 + 5 + 4 + 5}
	if len(f.Stream) != 3 {
		t.Fatalf("stream holds %d requests, want 3", len(f.Stream))
	}
	for i, req := range f.Stream {
		if req.ID != i {
			t.Fatalf("stream request %d has ID %d; want deterministic base+turn IDs", i, req.ID)
		}
		if req.InputLen != wantInputs[i] {
			t.Fatalf("turn %d input %d, want %d (grown context)", i, req.InputLen, wantInputs[i])
		}
	}
	// The closed loop must hold: each follow-up arrives think-time after
	// the previous turn completed, never before.
	for i := 1; i < 3; i++ {
		gap := f.Stream[i].Arrival - f.Stream[i-1].Arrival
		if gap < units.Seconds(0.5) {
			t.Fatalf("turn %d arrived %v after turn %d; closed loop violated", i, gap, i-1)
		}
	}
}

func TestRunPlanDeterministic(t *testing.T) {
	a := mustRunPlan(t, LeastOutstanding(), 2, chatPlan(t, 10, 7))
	b := mustRunPlan(t, LeastOutstanding(), 2, chatPlan(t, 10, 7))
	if !reflect.DeepEqual(a.Stream, b.Stream) {
		t.Fatal("realised streams diverged between identical closed-loop runs")
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("request metrics diverged between identical closed-loop runs")
	}
	if a.Makespan != b.Makespan || a.Tokens != b.Tokens {
		t.Fatalf("fleet totals diverged: %v/%d vs %v/%d", a.Makespan, a.Tokens, b.Makespan, b.Tokens)
	}
}

// The realised stream of a closed-loop run replays open-loop: same turns,
// same grown contexts, arrivals now literal.
func TestRunPlanStreamReplays(t *testing.T) {
	convs := chatPlan(t, 8, 21)
	f := mustRunPlan(t, LeastOutstanding(), 2, convs)

	tr := workload.NewTrace("replay", workload.ScenarioChatMultiTurn, 21, f.Stream)
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := workload.ImportTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	g := mustRun(t, LeastOutstanding(), 2, back.Workload())
	if g.Tokens != f.Tokens {
		t.Fatalf("replay produced %d tokens, closed-loop run %d", g.Tokens, f.Tokens)
	}
	if len(g.Requests) != len(f.Requests) {
		t.Fatalf("replay served %d requests, closed-loop run %d", len(g.Requests), len(f.Requests))
	}
}

func TestRunPlanValidation(t *testing.T) {
	cfg := model.LLaMA65B()
	sys := newPAPI
	c, err := New(sys, cfg, testOptions(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunPlan(nil); err == nil {
		t.Error("empty plan should fail")
	}
	if _, err := c.RunPlan([]workload.Conversation{{ID: 0}}); err == nil {
		t.Error("turnless conversation should fail")
	}
	for _, tc := range []struct {
		name   string
		mutate func(convs []workload.Conversation)
	}{
		{"negative think time", func(convs []workload.Conversation) { convs[0].Turns[1].Think = -5 }},
		{"NaN think time", func(convs []workload.Conversation) { convs[0].Turns[1].Think = units.Seconds(math.NaN()) }},
		{"infinite think time", func(convs []workload.Conversation) { convs[0].Turns[1].Think = units.Seconds(math.Inf(1)) }},
		{"repeated conversation ID", func(convs []workload.Conversation) { convs[1].ID = convs[0].ID }},
	} {
		convs := chatPlan(t, 6, 3)
		if len(convs[0].Turns) < 2 {
			t.Fatalf("%s: conversation 0 needs a follow-up turn", tc.name)
		}
		tc.mutate(convs)
		fresh, err := New(sys, cfg, testOptions(2, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.RunPlan(convs); err == nil {
			t.Errorf("%s: RunPlan accepted the plan", tc.name)
		} else if _, err := fresh.RunPlan(chatPlan(t, 2, 1)); err != nil {
			t.Errorf("%s: the rejection consumed the cluster: %v", tc.name, err)
		}
	}
	// Validation failures must not consume the single-use cluster.
	if _, err := c.RunPlan(chatPlan(t, 2, 1)); err != nil {
		t.Errorf("plan run after rejected inputs: %v", err)
	}
	if _, err := c.RunPlan(chatPlan(t, 2, 1)); err == nil {
		t.Error("second completed RunPlan should fail")
	}
	c2, err := New(sys, cfg, testOptions(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(workload.GeneralQA().Generate(4, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.RunPlan(chatPlan(t, 2, 1)); err == nil {
		t.Error("RunPlan after Run should fail (single-use cluster)")
	}
}

// The realised stream of a closed-loop run keeps its dialogue structure:
// every request carries its conversation ID and 1-based turn index, and the
// structure survives trace export.
func TestRunPlanStreamKeepsConversationStructure(t *testing.T) {
	convs := chatPlan(t, 6, 33)
	f := mustRunPlan(t, LeastOutstanding(), 2, convs)
	turnsSeen := make(map[int]int, len(convs))
	for _, req := range f.Stream {
		if req.Turn < 1 || req.Turn > len(convs[req.Conversation].Turns) {
			t.Fatalf("request %d has turn %d outside conversation %d's %d turns",
				req.ID, req.Turn, req.Conversation, len(convs[req.Conversation].Turns))
		}
		turnsSeen[req.Conversation]++
	}
	for _, conv := range convs {
		if turnsSeen[conv.ID] != len(conv.Turns) {
			t.Fatalf("conversation %d has %d stream entries, want %d", conv.ID, turnsSeen[conv.ID], len(conv.Turns))
		}
	}
	tr := workload.NewTrace("structure", workload.ScenarioChatMultiTurn, 33, f.Stream)
	data, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := workload.ImportTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Workload(), f.Stream) {
		t.Fatal("conversation structure lost in trace round-trip")
	}
}
