package serving

import (
	"fmt"

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
		s.kvSum -= r.contextLen()
		s.kvDemandActive -= r.kvBytes
		s.kvDemandAll -= r.kvBytes
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
		out = append(out, Casualty{Request: r.Request, Generated: r.generated, Admitted: true})
		s.surrender(r)
	}
	for _, r := range s.pending {
		s.kvDemandAll -= r.kvBytes
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, -1)
		out = append(out, Casualty{Request: r.Request, Generated: r.generated, Admitted: false})
		s.surrender(r)
	}
	s.active = nil
	s.pending = nil
	s.intHint = 0
	return out
}

// Cancel withdraws one outstanding request by ID — the per-request timeout
// path. A pending request is spliced from the queue; an active one is
// evicted from the batch, which the next window's placement sees as a
// smaller RLP, and its KV lease surrendered. The second return is false when the ID is not
// outstanding here (already finished, or never routed here), which a stale
// timeout treats as "nothing to do".
func (s *Stepper) Cancel(id int) (Casualty, bool, error) {
	if s.static {
		return Casualty{}, false, fmt.Errorf("serving: cannot cancel in a static batch stepper")
	}
	for i, r := range s.pending {
		if r.ID != id {
			continue
		}
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		if i < s.intHint {
			s.intHint--
		}
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, -1)
		s.kvDemandAll -= r.kvBytes
		c := Casualty{Request: r.Request, Generated: r.generated}
		s.surrender(r)
		return c, true, nil
	}
	for i, r := range s.active {
		if r.ID != id {
			continue
		}
		s.active = append(s.active[:i], s.active[i+1:]...)
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
		s.kvSum -= r.contextLen()
		s.kvDemandActive -= r.kvBytes
		s.kvDemandAll -= r.kvBytes
		c := Casualty{Request: r.Request, Generated: r.generated, Admitted: true}
		s.surrender(r)
		return c, true, nil
	}
	return Casualty{}, false, nil
}

// surrender drops one lost request's engine-side state: its KV lease (the
// blocks are gone with the replica, not parked for revival) and its
// committed tokens, whose count the casualty already carries, so a
// half-served request has no record in Finalize. The retry that replaces it
// is a fresh request with a record of its own wherever it lands.
func (s *Stepper) surrender(r *request) {
	if s.kvStore != nil {
		s.kvStore.Surrender(r.lease)
	}
	r.generated = 0
}
