package serving

import (
	"fmt"

	"github.com/papi-sim/papi/internal/workload"
)

// RunContinuous executes mixed continuous batching (§2.2.1, [16,17]): new
// requests join the running batch at iteration boundaries — token-level
// scheduling — without waiting for the current batch to drain. Admission is
// bounded by maxBatch and by the attention pool's KV capacity (checked in
// Stepper.admit against a running total of the admitted requests' demand,
// not a walk over the batch per candidate); runtime RLP therefore both
// grows (admissions) and shrinks (completions), the §3.2 dynamics that
// motivate PAPI's runtime scheduler. It is a convenience wrapper over
// NewStreamStepper that drives the stepper to completion.
func (e *Engine) RunContinuous(reqs []workload.Request, maxBatch int) (Result, error) {
	if len(reqs) == 0 {
		return Result{}, fmt.Errorf("serving: empty request stream")
	}
	st, err := e.NewStreamStepper(reqs, maxBatch)
	if err != nil {
		return Result{}, err
	}
	return st.run()
}
