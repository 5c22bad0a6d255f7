package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/papi-sim/papi/internal/units"
)

// ArrivalProcess generates request arrival instants one at a time. An
// implementation may carry state (the on-off process tracks which phase it is
// in), so one instance belongs to one generation pass: construct a fresh
// process per trace. All randomness flows through the caller's rng, which is
// what makes a scenario deterministic for a fixed seed.
type ArrivalProcess interface {
	Name() string
	// NextAfter returns the next arrival instant strictly after t.
	NextAfter(t units.Seconds, rng *rand.Rand) units.Seconds
}

// PoissonProcess is the stationary memoryless arrival stream: exponential
// inter-arrival gaps at a constant rate. This is the regime every experiment
// before the scenario engine assumed.
type PoissonProcess struct {
	Rate float64 // mean arrivals per second (> 0)
}

// NewPoisson returns a stationary Poisson process at ratePerSec, which must
// be finite and positive: a zero rate would generate infinite inter-arrival
// gaps, an infinite one put every arrival at t = 0, and NaN poison every
// instant.
func NewPoisson(ratePerSec float64) (*PoissonProcess, error) {
	if !finitePositive(ratePerSec) {
		return nil, fmt.Errorf("workload: poisson rate %g must be finite and positive", ratePerSec)
	}
	return &PoissonProcess{Rate: ratePerSec}, nil
}

// finitePositive reports whether x is a usable rate, dwell or period; NaN
// fails every comparison, so it is rejected too.
func finitePositive[T ~float64](x T) bool {
	return x > 0 && !math.IsInf(float64(x), 1)
}

// mustArrivals unwraps a process the program builds from its own constant
// parameters — a scenario registry entry — whose rejection is a programming
// error, not bad input. Parameters from a caller go through the
// constructors' error return.
func mustArrivals(p ArrivalProcess, err error) ArrivalProcess {
	if err != nil {
		panic(fmt.Sprintf("workload: program-written arrival process rejected: %v", err))
	}
	return p
}

// Name identifies the process and its rate.
func (p *PoissonProcess) Name() string { return fmt.Sprintf("poisson(%g/s)", p.Rate) }

// NextAfter draws one exponential gap.
func (p *PoissonProcess) NextAfter(t units.Seconds, rng *rand.Rand) units.Seconds {
	return t + units.Seconds(rng.ExpFloat64()/p.Rate)
}

// OnOffProcess is a two-phase Markov-modulated Poisson process: bursts at
// BurstRate alternate with lulls at BaseRate, with exponentially distributed
// phase dwell times. It models the flash-crowd traffic that stresses
// admission control and router load spreading: a burst piles RLP onto the
// fleet faster than requests drain, then the lull lets the batch decay —
// exactly the dynamic-parallelism swing PAPI's scheduler exploits.
//
// Because the exponential distribution is memoryless, re-drawing the gap at
// each phase switch with the new phase's rate samples the MMPP exactly.
type OnOffProcess struct {
	BurstRate float64       // arrivals/s while bursting (> 0)
	BaseRate  float64       // arrivals/s during lulls (> 0)
	MeanBurst units.Seconds // mean burst-phase dwell (> 0)
	MeanLull  units.Seconds // mean lull-phase dwell (> 0)

	started  bool
	bursting bool
	phaseEnd units.Seconds
}

// NewOnOff returns a bursty on-off process that starts in a lull. All four
// parameters must be finite and positive: a zero rate or dwell would hang
// or degenerate the sampler.
func NewOnOff(burstRate, baseRate float64, meanBurst, meanLull units.Seconds) (*OnOffProcess, error) {
	if !finitePositive(burstRate) || !finitePositive(baseRate) {
		return nil, fmt.Errorf("workload: on-off rates (%g, %g) must be finite and positive", burstRate, baseRate)
	}
	if !finitePositive(meanBurst) || !finitePositive(meanLull) {
		return nil, fmt.Errorf("workload: on-off dwells (%v, %v) must be finite and positive", meanBurst, meanLull)
	}
	return &OnOffProcess{
		BurstRate: burstRate,
		BaseRate:  baseRate,
		MeanBurst: meanBurst,
		MeanLull:  meanLull,
	}, nil
}

// Name identifies the process and both phase rates.
func (p *OnOffProcess) Name() string {
	return fmt.Sprintf("on-off(%g/s burst, %g/s lull)", p.BurstRate, p.BaseRate)
}

// NextAfter advances through phase switches until a gap lands inside the
// current phase.
func (p *OnOffProcess) NextAfter(t units.Seconds, rng *rand.Rand) units.Seconds {
	if !p.started {
		p.started = true
		p.bursting = false
		p.phaseEnd = t + units.Seconds(rng.ExpFloat64())*p.MeanLull
	}
	for {
		rate := p.BaseRate
		if p.bursting {
			rate = p.BurstRate
		}
		next := t + units.Seconds(rng.ExpFloat64()/rate)
		if next <= p.phaseEnd {
			return next
		}
		t = p.phaseEnd
		p.bursting = !p.bursting
		dwell := p.MeanLull
		if p.bursting {
			dwell = p.MeanBurst
		}
		p.phaseEnd = t + units.Seconds(rng.ExpFloat64())*dwell
	}
}

// DiurnalProcess is an inhomogeneous Poisson process whose rate follows a
// sinusoidal day curve: rate(t) = Base · (1 + Amplitude·sin(2πt/Period)).
// It models the slow load swing of a user-facing service — the fleet must
// ride peak rate without violating the SLO while not idling the trough —
// compressed to a simulable period. Sampling uses Lewis–Shedler thinning
// against the peak rate, which is exact for any bounded rate curve.
type DiurnalProcess struct {
	Base      float64       // mean arrivals/s over a full period (> 0)
	Amplitude float64       // relative swing in [0, 1)
	Period    units.Seconds // one full day-cycle (> 0)
}

// NewDiurnal returns a sinusoidal-rate process. Base and period must be
// finite and positive and the amplitude must sit in [0, 1): a non-positive
// peak rate would make the thinning sampler loop forever.
func NewDiurnal(base, amplitude float64, period units.Seconds) (*DiurnalProcess, error) {
	if !finitePositive(base) {
		return nil, fmt.Errorf("workload: diurnal base rate %g must be finite and positive", base)
	}
	if !(amplitude >= 0 && amplitude < 1) {
		return nil, fmt.Errorf("workload: diurnal amplitude %g outside [0, 1)", amplitude)
	}
	if !finitePositive(period) {
		return nil, fmt.Errorf("workload: diurnal period %v must be finite and positive", period)
	}
	return &DiurnalProcess{Base: base, Amplitude: amplitude, Period: period}, nil
}

// Name identifies the process, its swing, and its period.
func (p *DiurnalProcess) Name() string {
	return fmt.Sprintf("diurnal(%g/s ±%.0f%%, period %v)", p.Base, 100*p.Amplitude, p.Period)
}

// Rate evaluates the instantaneous arrival rate at t.
func (p *DiurnalProcess) Rate(t units.Seconds) float64 {
	return p.Base * (1 + p.Amplitude*math.Sin(2*math.Pi*t.Seconds()/p.Period.Seconds()))
}

// NextAfter thins a peak-rate Poisson stream down to the sinusoidal curve.
func (p *DiurnalProcess) NextAfter(t units.Seconds, rng *rand.Rand) units.Seconds {
	peak := p.Base * (1 + p.Amplitude)
	for {
		t += units.Seconds(rng.ExpFloat64() / peak)
		if rng.Float64()*peak <= p.Rate(t) {
			return t
		}
	}
}

// ArrivalTimes draws n arrival instants from the process, starting at time
// zero. The process instance is consumed (stateful processes advance).
func ArrivalTimes(p ArrivalProcess, n int, rng *rand.Rand) []units.Seconds {
	out := make([]units.Seconds, n)
	t := units.Seconds(0)
	for i := range out {
		t = p.NextAfter(t, rng)
		out[i] = t
	}
	return out
}
