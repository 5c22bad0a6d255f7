package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 0}); got != 0 {
		t.Fatalf("geomean with non-positive should be 0, got %v", got)
	}
	// Geomean of speedups is invariant to reciprocal-pairing.
	if got := GeoMean([]float64{0.5, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("geomean(0.5, 2) = %v, want 1", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("minmax = %v %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty minmax should be zeros")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Percentile must not mutate the input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Quantiles(xs, 50, 95, 99)
	for i, p := range []float64{50, 95, 99} {
		if want := Percentile(xs, p); got[i] != want {
			t.Fatalf("Quantiles p%v = %v, want %v", p, got[i], want)
		}
	}
	for _, q := range Quantiles(nil, 50, 99) {
		if q != 0 {
			t.Fatal("empty Quantiles should be zeros")
		}
	}
	// Quantiles must not mutate the input.
	ys := []float64{3, 1, 2}
	Quantiles(ys, 50, 99)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantiles mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("summary = %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatal("empty summary should be zeros")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "design", "speedup")
	tb.AddRow("PAPI", "1.8")
	tb.AddRow("AttAcc-only", "0.16")
	out := tb.String()
	if !strings.Contains(out, "Fig. X") || !strings.Contains(out, "AttAcc-only") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Fatal("cells beyond columns should be dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Fatal("short rows should render")
	}
}

// Property: geomean lies between min and max for positive inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
		}
		g := GeoMean(xs)
		lo, hi := MinMax(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(aRaw) / 2.55
		b := float64(bRaw) / 2.55
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
