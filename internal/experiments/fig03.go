package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig3Result reproduces Fig. 3: how many decoding iterations each request of
// a batch stays active, i.e. the runtime-RLP decay under static batching.
type Fig3Result struct {
	Batch int
	// IterationsPerRequest is sorted descending, like the figure's bars.
	IterationsPerRequest []int
	// RLPAt samples the remaining RLP at fractions of the longest request's
	// decode (0%, 25%, 50%, 75%, 100%).
	RLPAt [5]int
}

// Fig3 runs a creative-writing batch and reports the per-request decode
// iteration counts. The RLP dynamics are hardware-independent; the
// A100+AttAcc baseline is used as the vehicle.
func Fig3(batch int) Fig3Result {
	res := runOne(design.MustBuild(design.A100AttAcc()), model.LLaMA65B(), workload.CreativeWriting(),
		Config{Batch: batch, Spec: 1})
	iters := append([]int(nil), res.PerRequestIterations...)
	sort.Sort(sort.Reverse(sort.IntSlice(iters)))

	out := Fig3Result{Batch: batch, IterationsPerRequest: iters}
	n := len(res.RLPTrace)
	for i := 0; i < 5; i++ {
		idx := i * (n - 1) / 4
		out.RLPAt[i] = res.RLPTrace[idx]
	}
	return out
}

// String renders the decay.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — Decoding iterations per request (batch %d, creative-writing, LLaMA-65B)\n", r.Batch)
	fmt.Fprintf(&b, "longest %d, median %d, shortest %d iterations\n",
		r.IterationsPerRequest[0],
		r.IterationsPerRequest[len(r.IterationsPerRequest)/2],
		r.IterationsPerRequest[len(r.IterationsPerRequest)-1])
	fmt.Fprintf(&b, "remaining RLP at 0/25/50/75/100%% of decode: %d %d %d %d %d\n",
		r.RLPAt[0], r.RLPAt[1], r.RLPAt[2], r.RLPAt[3], r.RLPAt[4])
	return b.String()
}
