package serving

import (
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// RequestMetrics records one request's latency experience — the quantities
// online serving SLOs are written against (§3.2(a)).
type RequestMetrics struct {
	ID int
	// TTFT is time to first token: from run start (static batching) or from
	// the request's arrival (continuous batching) to the end of the
	// iteration that committed its first output token. Prefill is included.
	TTFT units.Seconds
	// TPOT is the mean time per output token after the first — the
	// steady-state decode cadence. A single-token request has no
	// inter-token gap, so its TPOT is 0 by definition; SLOAttainment scores
	// such requests by their TTFT-inclusive completion time instead.
	TPOT units.Seconds
	// Completion is when the request finished, on the same clock as TTFT.
	Completion units.Seconds
	// OutputTokens is the number of tokens the request produced.
	OutputTokens int
	// Class is the request's priority class (interactive or batch).
	Class workload.Class
	// Preemptions counts how many times the request was evicted from the
	// active batch and requeued (batch-class requests under KV pressure).
	Preemptions int
}

// SLOAttainment returns the fraction of requests meeting the per-token SLO.
// Requests with more than one output token are scored by TPOT. Single-token
// requests have no inter-token gap (their TPOT is 0 by definition), so they
// are scored by their TTFT-inclusive completion time instead: the lone token
// must arrive within the SLO bound measured from the request's epoch.
// Scoring them by TPOT would grade them against an undefined quantity;
// before this rule they inherited TPOT = TTFT, silently polluting
// attainment with prefill latency under a decode-cadence SLO.
func SLOAttainment(reqs []RequestMetrics, slo workload.SLO) float64 {
	if len(reqs) == 0 {
		return 0
	}
	return float64(SLOMetCount(reqs, slo)) / float64(len(reqs))
}

// SLOMetCount counts the requests meeting the per-token SLO (same
// single-token rule as SLOAttainment). Exposing the count rather than the
// ratio lets the fleet aggregate choose an honest denominator: terminally
// failed requests have no metrics record but must still count as misses.
func SLOMetCount(reqs []RequestMetrics, slo workload.SLO) int {
	met := 0
	for _, r := range reqs {
		lat := r.TPOT
		if r.OutputTokens <= 1 {
			lat = r.Completion
		}
		if slo.Met(lat) {
			met++
		}
	}
	return met
}

// SLOMetCountClass counts one priority class's requests meeting the SLO,
// returning the met count and how many requests of the class were present.
func SLOMetCountClass(reqs []RequestMetrics, slo workload.SLO, class workload.Class) (met, n int) {
	for _, r := range reqs {
		if r.Class != class {
			continue
		}
		n++
		lat := r.TPOT
		if r.OutputTokens <= 1 {
			lat = r.Completion
		}
		if slo.Met(lat) {
			met++
		}
	}
	return met, n
}

// SLOAttainmentClass scores only the requests of one priority class against
// the per-token SLO (same single-token rule as SLOAttainment). It returns 1
// when the class is absent from the set: an empty tier violates nothing.
func SLOAttainmentClass(reqs []RequestMetrics, slo workload.SLO, class workload.Class) float64 {
	met, n := SLOMetCountClass(reqs, slo, class)
	if n == 0 {
		return 1
	}
	return float64(met) / float64(n)
}

// metricsTracker accumulates per-request timings during a run.
type metricsTracker struct {
	byID map[int]*RequestMetrics
}

func newMetricsTracker() *metricsTracker {
	return &metricsTracker{byID: make(map[int]*RequestMetrics)}
}

// entry resolves (and caches on the request) the request's metrics record,
// creating it with the given TTFT on first sight of the ID. Requests sharing
// an ID share one record, as they always have.
func (m *metricsTracker) entry(r *request, ttft units.Seconds) *RequestMetrics {
	rm, ok := m.byID[r.ID]
	if !ok {
		rm = &RequestMetrics{ID: r.ID, TTFT: ttft, Class: r.Class}
		m.byID[r.ID] = rm
	}
	r.rm = rm
	return rm
}

// observe records n tokens committed to a request over a window of
// iterations, the first ending at first and the last at last, measured
// against the request's start epoch. A window is equivalent to one observe
// per iteration: the interior Completion writes would be overwritten, so
// only the first iteration (which fixes TTFT for a fresh request) and the
// last (which fixes Completion) are observable.
func (m *metricsTracker) observe(r *request, n int, first, last, epoch units.Seconds) {
	if n <= 0 {
		return
	}
	rm := r.rm
	if rm == nil {
		rm = m.entry(r, first-epoch)
	}
	rm.OutputTokens += n
	rm.Completion = last - epoch
}

// finalize computes TPOTs and returns the metrics in request-ID order
// matching the input order given. An ID appearing twice in order (a
// timeout-retry re-landing on the same replica re-enters the input list)
// yields one record; surrendered requests (crash, cancel) have no record and
// yield none.
func (m *metricsTracker) finalize(order []workload.Request) []RequestMetrics {
	out := make([]RequestMetrics, 0, len(order))
	seen := make(map[int]bool, len(order))
	for _, req := range order {
		if seen[req.ID] {
			continue
		}
		seen[req.ID] = true
		rm, ok := m.byID[req.ID]
		if !ok {
			continue
		}
		if rm.OutputTokens > 1 {
			rm.TPOT = (rm.Completion - rm.TTFT) / units.Seconds(rm.OutputTokens-1)
		}
		// Single-token requests keep TPOT = 0: there is no inter-token gap
		// to average (see RequestMetrics.TPOT and SLOAttainment).
		out = append(out, *rm)
	}
	return out
}
