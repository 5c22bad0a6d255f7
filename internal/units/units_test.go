package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBandwidthTime(t *testing.T) {
	bw := GBps(2)
	got := bw.Time(GB(4))
	if math.Abs(float64(got)-2) > 1e-12 {
		t.Fatalf("4 GB at 2 GB/s = %v, want 2s", got)
	}
}

func TestBandwidthTimeZeroBandwidth(t *testing.T) {
	var bw BytesPerSecond
	if got := bw.Time(GB(1)); !math.IsInf(float64(got), 1) {
		t.Fatalf("zero bandwidth should give +Inf, got %v", got)
	}
}

func TestFLOPSRateTime(t *testing.T) {
	r := TFLOPS(1)
	got := r.Time(FLOPs(5e11))
	if math.Abs(float64(got)-0.5) > 1e-12 {
		t.Fatalf("0.5 TFLOP at 1 TFLOP/s = %v, want 0.5s", got)
	}
}

func TestFLOPSRateTimeZero(t *testing.T) {
	var r FLOPSRate
	if got := r.Time(1); !math.IsInf(float64(got), 1) {
		t.Fatalf("zero rate should give +Inf, got %v", got)
	}
}

func TestPerByteEnergy(t *testing.T) {
	e := PJPerByte(10)
	got := e.Energy(GB(1))
	if math.Abs(float64(got)-0.01) > 1e-12 {
		t.Fatalf("1 GB at 10 pJ/B = %v, want 10 mJ", got)
	}
}

func TestPowerEnergyRoundTrip(t *testing.T) {
	w := Watts(116)
	j := w.Energy(Seconds(2))
	if math.Abs(float64(j)-232) > 1e-9 {
		t.Fatalf("116 W for 2 s = %v, want 232 J", j)
	}
	back := j.Power(Seconds(2))
	if math.Abs(float64(back)-116) > 1e-9 {
		t.Fatalf("round trip power = %v, want 116 W", back)
	}
}

func TestPowerOfZeroDuration(t *testing.T) {
	if got := Joules(5).Power(0); got != 0 {
		t.Fatalf("power over zero time should be 0, got %v", got)
	}
}

func TestIntensity(t *testing.T) {
	if got := Intensity(100, 50); got != 2 {
		t.Fatalf("intensity = %v, want 2", got)
	}
	if got := Intensity(100, 0); !math.IsInf(got, 1) {
		t.Fatalf("intensity with 0 bytes should be +Inf, got %v", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max(Seconds(1), Seconds(2)); got != 2 {
		t.Fatalf("Max = %v", got)
	}
	if got := Max(Seconds(3), Seconds(2)); got != 3 {
		t.Fatalf("Max = %v", got)
	}
}

func TestConstructors(t *testing.T) {
	cases := []struct {
		got, want float64
		name      string
	}{
		{float64(GB(1.5)), 1.5e9, "GB"},
		{float64(GiBytes(1)), 1 << 30, "GiBytes"},
		{float64(GBps(2.664)), 2.664e9, "GBps"},
		{float64(TFLOPS(312)), 3.12e14, "TFLOPS"},
		{float64(Microseconds(5)), 5e-6, "Microseconds"},
		{float64(Milliseconds(5)), 5e-3, "Milliseconds"},
		{float64(Nanoseconds(5)), 5e-9, "Nanoseconds"},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		v    Seconds
		want string
	}{
		{0, "0s"},
		{Nanoseconds(3), "3.00ns"},
		{Microseconds(12), "12.00µs"},
		{Milliseconds(1.5), "1.500ms"},
		{Seconds(2), "2.000s"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Seconds(%g).String() = %q, want %q", float64(c.v), got, c.want)
		}
	}
}

func TestEngineeringString(t *testing.T) {
	if s := TFLOPS(312).String(); !strings.Contains(s, "T") {
		t.Errorf("312 TFLOP/s should use tera prefix, got %q", s)
	}
	if s := Watts(116).String(); s != "116W" {
		t.Errorf("116 W formats as %q", s)
	}
	if s := Bytes(0).String(); s != "0B" {
		t.Errorf("0 bytes formats as %q", s)
	}
	if s := Joules(2.5e-3).String(); !strings.Contains(s, "m") {
		t.Errorf("2.5 mJ should use milli prefix, got %q", s)
	}
}

// Property: time computed from bandwidth is always non-negative and scales
// linearly in the byte count.
func TestBandwidthTimeLinearity(t *testing.T) {
	f := func(rawBytes uint32, rawBW uint32) bool {
		b := Bytes(rawBytes)
		bw := BytesPerSecond(rawBW) + 1 // avoid zero
		t1 := bw.Time(b)
		t2 := bw.Time(2 * b)
		return t1 >= 0 && math.Abs(float64(t2)-2*float64(t1)) <= 1e-9*math.Abs(float64(t2))+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: roofline Max is commutative-compatible with >= ordering.
func TestMaxProperty(t *testing.T) {
	f := func(a, b float64) bool {
		m := Max(Seconds(a), Seconds(b))
		return float64(m) >= a || float64(m) >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy ledger additivity — per-byte energy is additive over splits.
func TestPerByteEnergyAdditive(t *testing.T) {
	f := func(rawA, rawB uint32, rawE uint16) bool {
		a, b := Bytes(rawA), Bytes(rawB)
		e := PJPerByte(float64(rawE) / 16)
		sum := e.Energy(a) + e.Energy(b)
		whole := e.Energy(a + b)
		return math.Abs(float64(sum)-float64(whole)) <= 1e-9*math.Abs(float64(whole))+1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
