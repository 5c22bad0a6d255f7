package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/units"
)

func processes() []func() ArrivalProcess {
	return []func() ArrivalProcess{
		func() ArrivalProcess { return mustArrivals(NewPoisson(20)) },
		func() ArrivalProcess { return mustArrivals(NewOnOff(40, 2, units.Seconds(1.5), units.Seconds(4))) },
		func() ArrivalProcess { return mustArrivals(NewDiurnal(12, 0.8, units.Seconds(20))) },
	}
}

func TestArrivalTimesIncreaseStrictly(t *testing.T) {
	for _, mk := range processes() {
		p := mk()
		times := ArrivalTimes(p, 200, rand.New(rand.NewSource(7)))
		if len(times) != 200 {
			t.Fatalf("%s: got %d times", p.Name(), len(times))
		}
		prev := units.Seconds(0)
		for i, at := range times {
			if at <= prev {
				t.Fatalf("%s: arrival %d at %v not after %v", p.Name(), i, at, prev)
			}
			prev = at
		}
	}
}

func TestArrivalTimesDeterministic(t *testing.T) {
	for _, mk := range processes() {
		a := ArrivalTimes(mk(), 100, rand.New(rand.NewSource(3)))
		b := ArrivalTimes(mk(), 100, rand.New(rand.NewSource(3)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs: %v vs %v", mk().Name(), i, a[i], b[i])
			}
		}
	}
}

// The empirical rate of each process should sit near its configured mean:
// Poisson at Rate, diurnal at Base (the sinusoid averages out over whole
// periods), and on-off between the lull and burst rates.
func TestArrivalProcessMeanRates(t *testing.T) {
	const n = 4000
	rate := func(p ArrivalProcess) float64 {
		times := ArrivalTimes(p, n, rand.New(rand.NewSource(11)))
		return n / float64(times[n-1])
	}

	if r := rate(mustArrivals(NewPoisson(20))); math.Abs(r-20) > 2 {
		t.Errorf("poisson empirical rate %.1f, want ≈ 20", r)
	}
	if r := rate(mustArrivals(NewDiurnal(12, 0.8, units.Seconds(20)))); math.Abs(r-12) > 2 {
		t.Errorf("diurnal empirical rate %.1f, want ≈ 12", r)
	}
	// On-off: expected long-run rate is the dwell-weighted phase mix.
	burst, lull := 40.0, 2.0
	mb, ml := 1.5, 4.0
	want := (burst*mb + lull*ml) / (mb + ml)
	if r := rate(mustArrivals(NewOnOff(burst, lull, units.Seconds(mb), units.Seconds(ml)))); math.Abs(r-want)/want > 0.2 {
		t.Errorf("on-off empirical rate %.1f, want ≈ %.1f", r, want)
	}
}

// Burstiness: the on-off process must have a markedly higher inter-arrival
// coefficient of variation than a Poisson stream of the same mean rate
// (CV = 1 for exponential gaps).
func TestOnOffIsBurstier(t *testing.T) {
	const n = 4000
	cv := func(p ArrivalProcess) float64 {
		times := ArrivalTimes(p, n, rand.New(rand.NewSource(5)))
		gaps := make([]float64, n-1)
		mean := 0.0
		for i := 1; i < n; i++ {
			gaps[i-1] = float64(times[i] - times[i-1])
			mean += gaps[i-1]
		}
		mean /= float64(n - 1)
		varsum := 0.0
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/float64(n-1)) / mean
	}
	onoff := cv(mustArrivals(NewOnOff(40, 2, units.Seconds(1.5), units.Seconds(4))))
	poisson := cv(mustArrivals(NewPoisson(20)))
	if onoff < 1.3*poisson {
		t.Errorf("on-off CV %.2f not clearly burstier than poisson CV %.2f", onoff, poisson)
	}
}

// The diurnal rate curve must stay within its configured envelope and the
// thinning sampler must track it: arrivals should be denser near the peak
// quarter-period than near the trough.
func TestDiurnalRateEnvelope(t *testing.T) {
	p, err := NewDiurnal(10, 0.5, units.Seconds(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []units.Seconds{0, 5, 10, 15, 20, 25, 30, 35} {
		r := p.Rate(tt)
		if r < 10*(1-0.5)-1e-9 || r > 10*(1+0.5)+1e-9 {
			t.Fatalf("rate %v at t=%v outside envelope [5, 15]", r, tt)
		}
	}
	// Count arrivals in the peak window [5,15) vs the trough window [25,35)
	// of the first period, over many periods worth of arrivals.
	times := ArrivalTimes(mustArrivals(NewDiurnal(10, 0.9, units.Seconds(40))), 8000, rand.New(rand.NewSource(9)))
	peak, trough := 0, 0
	for _, at := range times {
		phase := math.Mod(float64(at), 40)
		switch {
		case phase >= 5 && phase < 15:
			peak++
		case phase >= 25 && phase < 35:
			trough++
		}
	}
	if peak <= 2*trough {
		t.Errorf("peak window has %d arrivals vs trough %d; want clear diurnal skew", peak, trough)
	}
}

// TestArrivalConstructorsRejectDegenerateParams: every rate, dwell,
// amplitude or period no process can mean — zero, out of range, NaN or
// infinite — is an error naming the parameter, never a panic and never a
// process that yields NaN or collapsed arrivals.
func TestArrivalConstructorsRejectDegenerateParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sec := func(x float64) units.Seconds { return units.Seconds(x) }
	for _, tc := range []struct {
		label, want string
		build       func() error
	}{
		{"poisson zero rate", "rate", func() error { _, err := NewPoisson(0); return err }},
		{"poisson NaN rate", "rate", func() error { _, err := NewPoisson(nan); return err }},
		{"poisson +Inf rate", "rate", func() error { _, err := NewPoisson(inf); return err }},
		{"poisson -Inf rate", "rate", func() error { _, err := NewPoisson(-inf); return err }},
		{"on-off zero lull rate", "rates", func() error { _, err := NewOnOff(40, 0, 1, 1); return err }},
		{"on-off NaN burst rate", "rates", func() error { _, err := NewOnOff(nan, 2, 1, 1); return err }},
		{"on-off +Inf burst rate", "rates", func() error { _, err := NewOnOff(inf, 2, 1, 1); return err }},
		{"on-off -Inf lull rate", "rates", func() error { _, err := NewOnOff(40, -inf, 1, 1); return err }},
		{"on-off zero dwell", "dwells", func() error { _, err := NewOnOff(40, 2, 0, 1); return err }},
		{"on-off NaN dwell", "dwells", func() error { _, err := NewOnOff(40, 2, 1, sec(nan)); return err }},
		{"on-off +Inf dwell", "dwells", func() error { _, err := NewOnOff(40, 2, sec(inf), 1); return err }},
		{"diurnal zero base", "base", func() error { _, err := NewDiurnal(0, 0.5, 10); return err }},
		{"diurnal NaN base", "base", func() error { _, err := NewDiurnal(nan, 0.5, 10); return err }},
		{"diurnal +Inf base", "base", func() error { _, err := NewDiurnal(inf, 0.5, 10); return err }},
		{"diurnal amplitude 1", "amplitude", func() error { _, err := NewDiurnal(10, 1, 10); return err }},
		{"diurnal NaN amplitude", "amplitude", func() error { _, err := NewDiurnal(10, nan, 10); return err }},
		{"diurnal -Inf amplitude", "amplitude", func() error { _, err := NewDiurnal(10, -inf, 10); return err }},
		{"diurnal zero period", "period", func() error { _, err := NewDiurnal(10, 0.5, 0); return err }},
		{"diurnal NaN period", "period", func() error { _, err := NewDiurnal(10, 0.5, sec(nan)); return err }},
		{"diurnal +Inf period", "period", func() error { _, err := NewDiurnal(10, 0.5, sec(inf)); return err }},
	} {
		err := tc.build()
		if err == nil {
			t.Errorf("%s: degenerate parameters accepted", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the %s", tc.label, err, tc.want)
		}
	}
}
