package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

// TestValueEvents runs the kernel on a value event type: every event fires
// exactly once, with its own payload, in (instant, scheduling order), and
// with the clock at its instant. An event scheduled while another fires, at
// an instant that already has events, fires after them.
func TestValueEvents(t *testing.T) {
	type ev struct {
		id int
		at units.Seconds
	}
	var e *Engine[ev]
	var fired []int
	e = New(func(now units.Seconds, x ev) {
		if now != x.at || e.Now() != x.at {
			t.Errorf("event %d fired at %v with the clock at %v, want %v", x.id, now, e.Now(), x.at)
		}
		fired = append(fired, x.id)
		if x.id == 1 {
			e.At(2, ev{id: 8, at: 2})
		}
	})
	for i, at := range []units.Seconds{3, 1, 2, 1, 3, 0, 2, 1} {
		e.At(at, ev{id: i, at: at})
	}
	if end := e.Run(); end != 3 {
		t.Fatalf("final time %v, want 3s", end)
	}
	want := []int{5, 1, 3, 7, 2, 6, 8, 0, 4}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New(Call)
	var order []int
	e.At(units.Seconds(3), func(units.Seconds) { order = append(order, 3) })
	e.At(units.Seconds(1), func(units.Seconds) { order = append(order, 1) })
	e.At(units.Seconds(2), func(units.Seconds) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	e := New(Call)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(units.Seconds(5), func(units.Seconds) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-broken order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(Call)
	hits := 0
	var chain func(units.Seconds)
	chain = func(now units.Seconds) {
		hits++
		if hits < 5 {
			e.At(now+1, chain)
		}
	}
	e.At(units.Seconds(1), chain)
	end := e.Run()
	if hits != 5 {
		t.Fatalf("chain fired %d times, want 5", hits)
	}
	if end != 5 {
		t.Fatalf("final time %v, want 5s", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(Call)
	e.At(units.Seconds(2), func(units.Seconds) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(units.Seconds(1), func(units.Seconds) {})
}

// Property: for any set of timestamps, the engine fires events in
// non-decreasing time order and the clock equals the max timestamp at the end.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New(Call)
		var fired []units.Seconds
		for _, r := range raw {
			at := units.Seconds(float64(r) / 8)
			e.At(at, func(now units.Seconds) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		if len(raw) > 0 {
			max := units.Seconds(0)
			for _, r := range raw {
				if s := units.Seconds(float64(r) / 8); s > max {
					max = s
				}
			}
			return e.Now() == max
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two engines fed the same schedule fire identically.
func TestDeterminism(t *testing.T) {
	build := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		e := New(Call)
		var log []float64
		for i := 0; i < 200; i++ {
			at := units.Seconds(rng.Float64() * 100)
			id := float64(i)
			e.At(at, func(now units.Seconds) { log = append(log, float64(now)+id/1000) })
		}
		e.Run()
		return log
	}
	a, b := build(42), build(42)
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
