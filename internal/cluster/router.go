package cluster

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Router picks the replica that receives an arriving request. Route is
// called once per request, in arrival order, with the replicas' live state;
// stateful routers (round-robin) advance their own state per call, so one
// Router instance belongs to one cluster run.
type Router interface {
	Name() string
	// Route returns the index of the chosen replica in reps.
	Route(req workload.Request, reps []*Replica) int
}

// RoundRobin returns the classic stateless-signal router: requests cycle
// through the replicas in order, ignoring load.
func RoundRobin() Router { return &roundRobin{} }

type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Route(_ workload.Request, reps []*Replica) int {
	i := r.next % len(reps)
	r.next++
	return i
}

// LeastOutstanding returns the load-aware router: each request goes to the
// replica with the fewest outstanding (admitted-but-unfinished plus queued)
// requests, ties broken by lowest replica ID.
func LeastOutstanding() Router { return leastOutstanding{} }

type leastOutstanding struct{}

func (leastOutstanding) Name() string { return "least-outstanding" }

func (leastOutstanding) Route(_ workload.Request, reps []*Replica) int {
	best := 0
	for i, rep := range reps[1:] {
		if rep.Outstanding() < reps[best].Outstanding() {
			best = i + 1
		}
	}
	return best
}

// KVHeadroom returns the memory-aware router: each request goes to the
// replica whose attention pool has the most free worst-case KV capacity —
// the signal that matters when long-context requests would otherwise block
// admission (§3.2(b)'s capacity limit, at fleet scale). Ties break by
// lowest replica ID.
func KVHeadroom() Router { return kvHeadroom{} }

type kvHeadroom struct{}

func (kvHeadroom) Name() string { return "kv-headroom" }

func (kvHeadroom) Route(_ workload.Request, reps []*Replica) int {
	best := 0
	var bestRoom units.Bytes = reps[0].KVHeadroom()
	for i, rep := range reps[1:] {
		if room := rep.KVHeadroom(); room > bestRoom {
			best, bestRoom = i+1, room
		}
	}
	return best
}

// RouterByName resolves a router policy by its display name.
func RouterByName(name string) (Router, error) {
	switch name {
	case "round-robin":
		return RoundRobin(), nil
	case "least-outstanding":
		return LeastOutstanding(), nil
	case "kv-headroom":
		return KVHeadroom(), nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q", name)
}
