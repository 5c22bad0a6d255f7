package dram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/sim"
	"github.com/papi-sim/papi/internal/units"
)

func testController() (*sim.Engine[sim.Event], *Controller) {
	e := sim.New(sim.Call)
	c := NewController(e, PIMChannelGeometry(), HBM3Timing(), HBM3Energy())
	return e, c
}

func TestGeometry(t *testing.T) {
	g := PIMChannelGeometry()
	if g.Banks() != 16 {
		t.Fatalf("banks = %d, want 16", g.Banks())
	}
	if g.ColsPerRow() != 64 {
		t.Fatalf("cols/row = %d, want 64", g.ColsPerRow())
	}
}

func TestCommandString(t *testing.T) {
	names := map[Command]string{CmdACT: "ACT", CmdPRE: "PRE", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF"}
	for cmd, want := range names {
		if got := cmd.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(cmd), got, want)
		}
	}
	if got := Command(99).String(); got != "Command(99)" {
		t.Errorf("unknown command formats as %q", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := testController()
	bad := []Address{
		{BankGroup: -1},
		{BankGroup: 4},
		{Bank: -1},
		{Bank: 4},
		{Row: -1},
		{Row: 1 << 30},
		{Col: -1},
		{Col: 64},
	}
	for _, a := range bad {
		if err := c.Submit(&Request{Addr: a}); err == nil {
			t.Errorf("Submit(%+v) should fail", a)
		}
	}
	if err := c.Submit(&Request{Addr: Address{}}); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestSingleReadLatency(t *testing.T) {
	e, c := testController()
	tm := c.Timing
	var fin units.Seconds
	err := c.Submit(&Request{Addr: Address{Row: 3, Col: 5}, Done: func(f units.Seconds) { fin = f }})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Closed bank: ACT at 0, RD at tRCD, data at tRCD+tCL+tBL.
	want := tm.TRCD + tm.TCL + tm.TBL
	if math.Abs(float64(fin-want)) > 1e-12 {
		t.Fatalf("read latency = %v, want %v", fin, want)
	}
	st := c.Stats()
	if st.Acts != 1 || st.Reads != 1 || st.RowMisses != 1 || st.RowHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRowHitSecondRead(t *testing.T) {
	e, c := testController()
	for col := 0; col < 4; col++ {
		if err := c.Submit(&Request{Addr: Address{Row: 1, Col: col}}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	st := c.Stats()
	if st.Acts != 1 {
		t.Fatalf("acts = %d, want 1 (open page policy)", st.Acts)
	}
	if st.RowHits != 3 || st.RowMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.RowHits, st.RowMisses)
	}
}

func TestRowConflictForcesPrecharge(t *testing.T) {
	e, c := testController()
	if err := c.Submit(&Request{Addr: Address{Row: 1, Col: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(&Request{Addr: Address{Row: 2, Col: 0}}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	st := c.Stats()
	if st.Acts != 2 || st.Pres != 1 {
		t.Fatalf("acts=%d pres=%d, want 2/1", st.Acts, st.Pres)
	}
	if st.RowMisses != 2 {
		t.Fatalf("misses = %d, want 2", st.RowMisses)
	}
}

func TestSameBankReadsRespectTCCDL(t *testing.T) {
	e, c := testController()
	tm := c.Timing
	var finishes []units.Seconds
	for col := 0; col < 3; col++ {
		err := c.Submit(&Request{Addr: Address{Row: 0, Col: col}, Done: func(f units.Seconds) {
			finishes = append(finishes, f)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if len(finishes) != 3 {
		t.Fatalf("finishes = %v", finishes)
	}
	for i := 1; i < len(finishes); i++ {
		gap := finishes[i] - finishes[i-1]
		if gap < tm.TCCDL-units.Nanoseconds(0.001) {
			t.Fatalf("CAS gap %v violates tCCD_L %v", gap, tm.TCCDL)
		}
	}
}

func TestAllBankModeScalesBandwidth(t *testing.T) {
	// In HBM-PIM all-bank broadcast mode, one command stream drives all 16
	// banks, so aggregate bandwidth approaches banks × per-bank.
	single := mustStream(t)(MeasureBankStreamBandwidth(8))
	all := mustStream(t)(MeasureAllBankStreamBandwidth(8))
	ratio := float64(all.Bandwidth) / float64(single.Bandwidth)
	if ratio < 14 || ratio > 16.5 {
		t.Fatalf("all-bank/single-bank bandwidth ratio = %.1f, want ≈16", ratio)
	}
}

// mustStream returns a stream measurement's result, failing the test on its
// error.
func mustStream(t *testing.T) func(StreamResult, error) StreamResult {
	return func(res StreamResult, err error) StreamResult {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// TestRunStreamRejectsBadSpecs pins RunStream's input checks: a row count
// outside [1, rows per bank] and a bank group outside the geometry are
// errors, not a one-row run, wrapped rows or a panic.
func TestRunStreamRejectsBadSpecs(t *testing.T) {
	g := PIMChannelGeometry()
	for _, spec := range []StreamSpec{
		{Rows: 0},
		{Rows: -3},
		{Rows: g.Rows + 1},
		{BankGroups: []int{9}, Banks: []int{0}, Rows: 1},
	} {
		if _, err := RunStream(g, HBM3Timing(), HBM3Energy(), spec); err == nil {
			t.Errorf("RunStream(%+v) ran, want an error", spec)
		}
	}
}

func TestBroadcastMixRejected(t *testing.T) {
	e, c := testController()
	if err := c.Submit(&Request{Addr: Address{Row: 0, Col: 0}, Broadcast: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(&Request{Addr: Address{Row: 0, Col: 1}}); err == nil {
		t.Fatal("mixing per-bank with broadcast should be rejected")
	}
	e.Run()
}

func TestBroadcastStatsFanOut(t *testing.T) {
	e, c := testController()
	if err := c.Submit(&Request{Addr: Address{Row: 0, Col: 0}, Broadcast: true}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	st := c.Stats()
	banks := uint64(c.Geom.Banks())
	if st.Acts != banks || st.Reads != banks {
		t.Fatalf("broadcast acts/reads = %d/%d, want %d each", st.Acts, st.Reads, banks)
	}
	if st.BytesRead != units.Bytes(float64(banks))*c.Geom.ColBytes {
		t.Fatalf("broadcast bytes = %v", st.BytesRead)
	}
}

func TestWritePath(t *testing.T) {
	e, c := testController()
	if err := c.Submit(&Request{Addr: Address{Row: 0, Col: 0}, Write: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(&Request{Addr: Address{Row: 1, Col: 0}}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	st := c.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("writes=%d reads=%d", st.Writes, st.Reads)
	}
	if st.BytesWritten != c.Geom.ColBytes || st.BytesRead != c.Geom.ColBytes {
		t.Fatalf("bytes written/read = %v/%v", st.BytesWritten, st.BytesRead)
	}
}

func TestRefreshHappens(t *testing.T) {
	e, c := testController()
	// Submit a request far enough in the future that a refresh interval passes.
	if err := c.Submit(&Request{Addr: Address{Row: 0, Col: 0}, Arrive: c.Timing.TREFI * 3}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	st := c.Stats()
	if st.Refreshes == 0 {
		t.Fatal("no refresh issued across 3×tREFI")
	}
	if st.Reads != 1 {
		t.Fatalf("reads = %d, want 1", st.Reads)
	}
}

func TestBankStreamBandwidthCalibration(t *testing.T) {
	// The analytic PIM model uses 2.664 GB/s per bank. The command-level
	// simulator must sustain a single-bank stream within 15% of that value.
	res := mustStream(t)(MeasureBankStreamBandwidth(64))
	got := float64(res.Bandwidth)
	want := 2.664e9
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("single-bank sustained bandwidth = %v, want within 15%% of 2.664 GB/s", res.Bandwidth)
	}
	if res.Stats.RowHitRate() < 0.9 {
		t.Fatalf("streaming row hit rate = %v, want > 0.9", res.Stats.RowHitRate())
	}
}

func TestStreamEnergyCalibration(t *testing.T) {
	// The analytic model charges 43.9 pJ/B of DRAM-access energy for
	// non-reused streaming. The command-level measurement must agree within 15%.
	res := mustStream(t)(MeasureAllBankStreamBandwidth(16))
	got := float64(res.EnergyPerByte)
	if got < 43.9*0.85 || got > 43.9*1.15 {
		t.Fatalf("stream energy = %.1f pJ/B, want within 15%% of 43.9", got)
	}
}

func TestTFAWThrottlesActivationBursts(t *testing.T) {
	e, c := testController()
	tm := c.Timing
	// One read per bank: 16 activations in a burst. The 5th ACT cannot issue
	// before tFAW after the 1st.
	for bg := 0; bg < c.Geom.BankGroups; bg++ {
		for b := 0; b < c.Geom.BanksPerGroup; b++ {
			if err := c.Submit(&Request{Addr: Address{BankGroup: bg, Bank: b, Row: 0, Col: 0}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Run()
	st := c.Stats()
	if st.Acts != 16 {
		t.Fatalf("acts = %d, want 16", st.Acts)
	}
	// With tFAW=30ns, 16 ACTs need at least 3×tFAW for the first 13.
	minSpan := 3 * tm.TFAW
	if st.LastFinish < minSpan {
		t.Fatalf("16 ACT burst finished at %v, violates tFAW floor %v", st.LastFinish, minSpan)
	}
}

// Property: for random request mixes, per-bank CAS operations never violate
// tCCD_L and the controller always drains the queue.
func TestTimingInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		e := sim.New(sim.Call)
		g, tm, en := PIMChannelGeometry(), HBM3Timing(), HBM3Energy()
		c := NewController(e, g, tm, en)
		type casEvent struct {
			bank int
			at   units.Seconds
		}
		var events []casEvent
		for i := 0; i < n; i++ {
			addr := Address{
				BankGroup: rng.Intn(g.BankGroups),
				Bank:      rng.Intn(g.BanksPerGroup),
				Row:       rng.Intn(64),
				Col:       rng.Intn(g.ColsPerRow()),
			}
			bank := addr.flatBank(g)
			if err := c.Submit(&Request{
				Addr:  addr,
				Write: rng.Intn(4) == 0,
				Done: func(fin units.Seconds) {
					events = append(events, casEvent{bank: bank, at: fin})
				},
			}); err != nil {
				return false
			}
		}
		e.Run()
		if c.Pending() != 0 || len(events) != n {
			return false
		}
		// Per-bank completion gaps must be >= tCCD_L (completions inherit the
		// CAS cadence because tCL+tBL is constant).
		last := map[int]units.Seconds{}
		for _, ev := range events {
			if prev, ok := last[ev.bank]; ok {
				gap := ev.at - prev
				if gap < 0 {
					gap = -gap
				}
				if gap > 0 && gap < tm.TCCDS-units.Nanoseconds(0.001) {
					return false
				}
			}
			if prev, ok := last[ev.bank]; !ok || ev.at > prev {
				last[ev.bank] = ev.at
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is non-negative, additive in commands, and monotone in
// the amount of work.
func TestEnergyMonotoneProperty(t *testing.T) {
	f := func(rowsRaw uint8) bool {
		rows := int(rowsRaw)%6 + 1
		small := mustStream(t)(RunStream(PIMChannelGeometry(), HBM3Timing(), HBM3Energy(),
			StreamSpec{BankGroups: []int{0}, Banks: []int{0}, Rows: rows}))
		big := mustStream(t)(RunStream(PIMChannelGeometry(), HBM3Timing(), HBM3Energy(),
			StreamSpec{BankGroups: []int{0}, Banks: []int{0}, Rows: rows + 1}))
		return small.Stats.CommandEnergy > 0 && big.Stats.CommandEnergy > small.Stats.CommandEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatal("empty stats should report 0 hit rate")
	}
	s.RowHits, s.RowMisses = 3, 1
	if got := s.RowHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}
