package serving

import (
	"fmt"
	"slices"

	"github.com/papi-sim/papi/internal/workload"
)

// Perturbation is the fault injector's latency lens on one engine: Slow
// multiplies every kernel latency (a straggling node), Attn multiplies the
// attention and communication terms only (a degraded PIM pool or GPU↔PIM
// link brownout, priced through the existing cost-model breakdown). Factors
// at or below 1 are inert; the zero value means "no perturbation".
type Perturbation struct {
	Slow float64
	Attn float64
}

// active reports whether the perturbation changes anything.
func (p Perturbation) active() bool { return p.Slow > 1 || p.Attn > 1 }

// SetPerturbation installs (or, with the zero value, clears) the engine's
// latency perturbation. The cluster fault injector calls this at window
// edges. Every iteration is stretched by the perturbation in force when it
// starts, and a macro window keeps one perturbation throughout, so a
// caller that changes the perturbation between Step calls must bound each
// call with SetHorizon at the change instant, as with Push: the window
// then ends at the first iteration boundary at or after it, and the next
// iteration runs under the new factors, exactly as single-stepping would.
func (s *Stepper) SetPerturbation(p Perturbation) {
	s.perturb = p
	s.perturbed = p.active()
}

// Casualty is one request lost from a stepper by a crash (Fail) or a
// cancellation (Cancel): what the fleet's failover path needs to rebuild the
// retry. Generated counts the output tokens the request had committed —
// already in Result.Tokens and lost with the replica, so a retry must
// re-prefill them and the fleet's goodput must discount them.
type Casualty struct {
	Request   workload.Request
	Generated int
	// Admitted reports whether the request was in the active batch (true) or
	// still queued (false) when it was lost.
	Admitted bool
}

// Fail crashes the stepper: every outstanding request — active batch and
// pending queue — is surrendered (KV leases dropped, latency records
// withdrawn) and returned as casualties in admission-then-queue order. A
// failed stepper has no work from then on — its Step is a no-op — and
// refuses further pushes; its Result keeps the work it already did (tokens,
// energy, time), which is how the fleet accounts a dead replica's sunk
// cost. Fail on a static stepper or a second Fail returns nil.
func (s *Stepper) Fail() []Casualty {
	if s.static || s.failed {
		return nil
	}
	s.failed = true
	var out []Casualty
	for _, r := range s.active {
		out = append(out, s.lose(r, true))
	}
	for _, r := range s.pending {
		out = append(out, s.lose(r, false))
	}
	s.active, s.pending, s.queueBuf = nil, nil, nil
	s.queued, s.intHint = [2]int{}, 0
	return out
}

// Cancel withdraws one outstanding request by ID — the per-request timeout
// path. A pending request is taken off the queue; an active one is evicted
// from the batch, which the next window's placement sees as a smaller RLP,
// and its KV lease surrendered. The second return is false when the ID is
// not outstanding here (already finished, or never routed here), which a
// stale timeout treats as "nothing to do".
func (s *Stepper) Cancel(id int) (Casualty, bool, error) {
	if s.static {
		return Casualty{}, false, fmt.Errorf("serving: cannot cancel in a static batch stepper")
	}
	for i, r := range s.pending {
		if r.ID == id {
			return s.lose(s.dequeue(i), false), true, nil
		}
	}
	for i, r := range s.active {
		if r.ID == id {
			s.active = slices.Delete(s.active, i, i+1)
			return s.lose(r, true), true, nil
		}
	}
	return Casualty{}, false, nil
}

// lose drops a request lost to a crash or a cancellation, active (admitted)
// or already off the queue, and returns its casualty. Its KV lease is
// surrendered — the blocks are gone with the replica, not parked for
// revival — and its committed tokens, whose count the casualty carries, are
// dropped, so a half-served request has no record in Finalize. The retry
// that replaces it is a fresh request with a record of its own wherever it
// lands. The caller removes an admitted request from active.
func (s *Stepper) lose(r *request, admitted bool) Casualty {
	if admitted {
		s.deactivate(r)
	}
	s.kvDemandAll -= r.kvBytes
	c := Casualty{Request: r.Request, Generated: r.generated, Admitted: admitted}
	if s.kvStore != nil {
		s.kvStore.Surrender(r.lease)
	}
	r.generated = 0
	return c
}
