package kv

import (
	"math"
	"runtime"
	"testing"

	"github.com/papi-sim/papi/internal/units"
)

// blockMiB is the per-block footprint every test store uses.
const blockMiB = units.Bytes(units.MiB)

// testStore builds a small sharing-enabled store of 8 hot blocks; shareOpt
// gives them 8 tokens each and a cold tier 2× hot.
func testStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := NewStore(opt, 8, blockMiB)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func shareOpt() Options {
	return Options{BlockTokens: 8, Sharing: true, ColdFactor: 2}
}

func mustAdmit(t *testing.T, s *Store, l *Lease, ctx int) Cost {
	t.Helper()
	p := s.PlanAdmit(l, ctx)
	if !s.CanAdmit(p) {
		t.Fatalf("CanAdmit(%+v) = false with committed %d of %d", p, s.CommittedBlocks(), s.HotBlocks())
	}
	c, err := s.Admit(l, ctx)
	if err != nil {
		t.Fatalf("Admit(%d): %v", ctx, err)
	}
	return c
}

// newLease initialises a fresh lease.
func newLease(s *Store, group, salt int64, prefixTokens, maxTokens int, grows bool) *Lease {
	l := new(Lease)
	s.InitLease(l, group, salt, prefixTokens, maxTokens, grows)
	return l
}

func checkInv(t *testing.T, s *Store, active ...*Lease) {
	t.Helper()
	if err := s.CheckInvariants(active); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{BlockTokens: -1}).Validate(); err == nil {
		t.Fatal("negative block size accepted")
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Options{ColdFactor: f}).Validate(); err == nil {
			t.Fatalf("cold-tier factor %v accepted", f)
		}
		if _, err := NewStore(Options{Sharing: true, ColdFactor: f}, 4, blockMiB); err == nil {
			t.Fatalf("NewStore accepted cold-tier factor %v", f)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStore(Options{Sharing: true}, 0, blockMiB); err == nil {
		t.Fatal("zero hot blocks accepted")
	}
	if _, err := NewStore(Options{Sharing: true, ColdFactor: 1e30}, 4, blockMiB); err == nil {
		t.Fatal("cold tier past the int32 block-ID space accepted")
	}
	if _, err := NewStore(Options{Sharing: true}, 4, 0); err == nil {
		t.Fatal("zero block footprint accepted")
	}
}

// TestPrefixAdoption: a second lease in the same group adopts the sealed
// shared-prefix blocks of the first instead of re-prefilling them.
func TestPrefixAdoption(t *testing.T) {
	s := testStore(t, shareOpt())
	// 20 tokens with a 16-token shared prefix: blocks 0,1 canonical
	// (sealed at 8 and 16), block 2 a private tail.
	a := newLease(s, 7, 1, 16, 24, false)
	ca := mustAdmit(t, s, a, 20)
	if ca.SharedTokens != 0 || ca.NewBlocks != 3 {
		t.Fatalf("first admission shared %d new %d, want 0/3", ca.SharedTokens, ca.NewBlocks)
	}
	checkInv(t, s, a)

	b := newLease(s, 7, 2, 16, 24, false)
	cb := mustAdmit(t, s, b, 20)
	if cb.SharedTokens != 16 || cb.ReusedBlocks != 2 || cb.NewBlocks != 1 {
		t.Fatalf("second admission shared %d reused %d new %d, want 16/2/1",
			cb.SharedTokens, cb.ReusedBlocks, cb.NewBlocks)
	}
	checkInv(t, s, a, b)

	// A lease from another group shares nothing.
	c := newLease(s, 9, 3, 16, 24, false)
	if p := s.PlanAdmit(c, 20); p.Run != 0 {
		t.Fatalf("cross-group plan found run %d, want 0", p.Run)
	}

	s.Commit(a)
	s.Commit(b)
	checkInv(t, s)
	// Canonical blocks stay resident: a third group member still hits.
	d := newLease(s, 7, 4, 16, 24, false)
	if p := s.PlanAdmit(d, 20); p.Run != 2 || p.AdoptIdle != 2 {
		t.Fatalf("post-commit plan run %d adoptIdle %d, want 2/2", p.Run, p.AdoptIdle)
	}
}

// TestConversationCarry: a grows lease seals its entire context (input and
// generated) canonically, so the follow-up turn adopts all full blocks.
func TestConversationCarry(t *testing.T) {
	s := testStore(t, shareOpt())
	turn1 := newLease(s, -3, 1, 0, 24, true)
	mustAdmit(t, s, turn1, 10) // prefill 10
	if err := s.Extend(turn1, 24); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	checkInv(t, s, turn1)
	s.Commit(turn1)
	checkInv(t, s)

	// Follow-up carries the 24 tokens and adds 8 of input: 32-token
	// context, the carried 24 ≡ blocks 0..2 all resident.
	turn2 := newLease(s, -3, 2, 24, 40, true)
	c2 := mustAdmit(t, s, turn2, 32)
	if c2.SharedTokens != 24 {
		t.Fatalf("follow-up shared %d tokens, want 24", c2.SharedTokens)
	}
	checkInv(t, s, turn2)
}

// TestParkResume: preemption demotes to the cold tier over the link;
// resumption promotes back and re-prefills only the dropped tail.
func TestParkResume(t *testing.T) {
	s := testStore(t, shareOpt())
	l := newLease(s, -1, 1, 0, 24, true)
	mustAdmit(t, s, l, 10)
	if err := s.Extend(l, 20); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	checkInv(t, s, l)

	pc := s.Park(l)
	if !l.Parked() {
		t.Fatal("lease not parked")
	}
	// Two sealed blocks demote; the 4-token tail is dropped.
	if pc.DemotedBlocks != 2 || pc.TransferBytes != 2*blockMiB {
		t.Fatalf("park demoted %d blocks, %v transferred; want 2, 2MiB", pc.DemotedBlocks, pc.TransferBytes)
	}
	hot, cold := s.TierBytes()
	if hot != 0 || cold != 2*blockMiB {
		t.Fatalf("post-park occupancy hot %v cold %v, want 0/2MiB", hot, cold)
	}
	checkInv(t, s)

	rc, err := s.Admit(l, 20)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rc.PromotedBlocks != 2 || rc.SharedTokens != 16 || rc.NewBlocks != 1 {
		t.Fatalf("resume promoted %d shared %d new %d, want 2/16/1",
			rc.PromotedBlocks, rc.SharedTokens, rc.NewBlocks)
	}
	if rc.TransferTime <= 0 {
		t.Fatal("promotion charged no transfer time")
	}
	checkInv(t, s, l)
}

// TestEvictionRespectsRefs: with every hot slot committed, admission is
// refused rather than evicting referenced state.
func TestEvictionRespectsRefs(t *testing.T) {
	s := testStore(t, shareOpt())
	a := newLease(s, 0, 1, 0, 32, false) // 4 blocks held + 0 growth at full
	mustAdmit(t, s, a, 32)
	b := newLease(s, 0, 2, 0, 32, false)
	mustAdmit(t, s, b, 32)
	if s.CommittedBlocks() != 8 {
		t.Fatalf("committed %d, want 8", s.CommittedBlocks())
	}
	c := newLease(s, 0, 3, 0, 8, false)
	if s.CanAdmit(s.PlanAdmit(c, 8)) {
		t.Fatal("admission accepted with zero free commitment")
	}
	if s.ParkGain(a) != 4 {
		t.Fatalf("ParkGain = %d, want 4", s.ParkGain(a))
	}
	s.Park(a)
	if !s.CanAdmit(s.PlanAdmit(c, 8)) {
		t.Fatal("admission still refused after park")
	}
	checkInv(t, s, b)
}

// TestNewStoreRequiresSharing: every store shares — with sharing off the
// serving engine keeps its byte ledger and builds no store — so NewStore
// refuses sharing-off options that are otherwise valid.
func TestNewStoreRequiresSharing(t *testing.T) {
	off := shareOpt()
	off.Sharing = false
	if err := off.Validate(); err != nil {
		t.Fatalf("sharing-off options rejected by Validate: %v", err)
	}
	if _, err := NewStore(off, 8, blockMiB); err == nil {
		t.Fatal("NewStore built a store with sharing off")
	}
	if _, err := NewStore(shareOpt(), 8, blockMiB); err != nil {
		t.Fatalf("NewStore rejected sharing-on options: %v", err)
	}
}

// TestReadoptionRefreshesIdleAge: a block that is adopted again and goes
// idle again rejoins the back of the idle queue, so eviction takes the
// blocks that have sat idle longest, not the ones that went idle first.
func TestReadoptionRefreshesIdleAge(t *testing.T) {
	opt := shareOpt()
	opt.ColdFactor = -1 // no cold tier: evictions drop, easy to observe
	s := testStore(t, opt)

	// Fill all 8 hot slots with idle canonical blocks: group 1's two
	// blocks go idle first, then group 2's two, then group 3 holds 4.
	g1 := newLease(s, 1, 1, 16, 16, false)
	mustAdmit(t, s, g1, 16)
	g2 := newLease(s, 2, 2, 16, 16, false)
	mustAdmit(t, s, g2, 16)
	s.Commit(g1)
	s.Commit(g2)
	// Re-touch group 1 so its blocks go idle again, after group 2's.
	r1 := newLease(s, 1, 3, 16, 16, false)
	mustAdmit(t, s, r1, 16)
	s.Commit(r1)
	g3 := newLease(s, 3, 4, 16, 32, false)
	mustAdmit(t, s, g3, 32)
	checkInv(t, s, g3)

	// 4 idle blocks remain: group 1 (most recently idled) and group 2
	// (idled earlier). A 2-block admission must evict two.
	v := newLease(s, 4, 5, 0, 16, false)
	mustAdmit(t, s, v, 16)
	checkInv(t, s, g3, v)

	// Oldest idles are group 2's: they died, group 1 survives.
	p1 := s.PlanAdmit(newLease(s, 1, 6, 16, 16, false), 16)
	p2 := s.PlanAdmit(newLease(s, 2, 7, 16, 16, false), 16)
	if p1.Run != 2 || p2.Run != 0 {
		t.Fatalf("group1 run %d group2 run %d, want 2/0", p1.Run, p2.Run)
	}
}

// TestLRUEvictsOldest: eviction ignores sharing history. Group 1's blocks
// were shared by two leases but are the OLDER idles, so they go before
// group 2's never-shared, younger ones.
func TestLRUEvictsOldest(t *testing.T) {
	opt := shareOpt()
	opt.ColdFactor = -1
	s := testStore(t, opt)

	shared := newLease(s, 1, 1, 16, 16, false)
	mustAdmit(t, s, shared, 16)
	re := newLease(s, 1, 2, 16, 16, false)
	mustAdmit(t, s, re, 16) // group 1 now held by two leases
	s.Commit(shared)
	s.Commit(re) // group 1 idle first
	private := newLease(s, 2, 3, 16, 16, false)
	mustAdmit(t, s, private, 16)
	s.Commit(private) // group 2 idle (never shared), younger
	hold := newLease(s, 3, 4, 0, 32, false)
	mustAdmit(t, s, hold, 32) // pin the other 4 slots

	v := newLease(s, 4, 5, 0, 16, false)
	mustAdmit(t, s, v, 16) // forces two evictions
	checkInv(t, s, hold, v)

	p1 := s.PlanAdmit(newLease(s, 1, 6, 16, 16, false), 16)
	p2 := s.PlanAdmit(newLease(s, 2, 7, 16, 16, false), 16)
	if p1.Run != 0 || p2.Run != 2 {
		t.Fatalf("group1 run %d group2 run %d, want 0/2", p1.Run, p2.Run)
	}
}

// TestColdTierEvictsOldest: parking into a full cold tier drops the cold
// block that has been idle longest, and a later admission re-adopts only
// the blocks that survived.
func TestColdTierEvictsOldest(t *testing.T) {
	opt := shareOpt()
	opt.ColdFactor = 0.5 // 4 cold slots behind the 8 hot ones
	s := testStore(t, opt)

	// Park two 2-block conversations: the cold tier fills with A's blocks
	// (position 1 first: Park releases a chain from its tail) and then B's.
	a := newLease(s, -1, 1, 0, 16, true)
	mustAdmit(t, s, a, 16)
	b := newLease(s, -2, 2, 0, 16, true)
	mustAdmit(t, s, b, 16)
	s.Park(a)
	s.Park(b)
	checkInv(t, s)
	if _, cold := s.TierBytes(); cold != 4*blockMiB {
		t.Fatalf("cold tier holds %v, want it full at 4 MiB", cold)
	}

	// A third park needs one cold slot: A's position-1 block goes.
	c := newLease(s, -3, 3, 0, 8, true)
	mustAdmit(t, s, c, 8)
	s.Park(c)
	checkInv(t, s)
	if got := s.Stats().EvictedBlocks; got != 1 {
		t.Fatalf("evicted %d blocks, want 1", got)
	}
	if pa, pb := s.PlanAdmit(a, 16), s.PlanAdmit(b, 16); pa.Run != 1 || pb.Run != 2 {
		t.Fatalf("A keeps %d blocks, B keeps %d, want 1/2", pa.Run, pb.Run)
	}

	// Resuming A promotes its surviving block and re-prefills the other.
	ca := mustAdmit(t, s, a, 16)
	if ca.PromotedBlocks != 1 || ca.NewBlocks != 1 || ca.SharedTokens != 8 {
		t.Fatalf("A resumed with %d promoted, %d new, %d shared tokens; want 1/1/8",
			ca.PromotedBlocks, ca.NewBlocks, ca.SharedTokens)
	}
	cb := mustAdmit(t, s, b, 16)
	if cb.PromotedBlocks != 2 || cb.NewBlocks != 0 {
		t.Fatalf("B resumed with %d promoted, %d new; want 2/0", cb.PromotedBlocks, cb.NewBlocks)
	}
	checkInv(t, s, a, b)
}

// TestResidentChainTokens pins the resident prefix a new request in a group
// sees: PlanAdmit on its fresh lease, at its declared prefix, walks the
// group's canonical chain through either tier.
func TestResidentChainTokens(t *testing.T) {
	s := testStore(t, shareOpt())
	l := newLease(s, -5, 1, 0, 24, true)
	mustAdmit(t, s, l, 20)
	resident := func(group int64) int {
		return s.PlanAdmit(newLease(s, group, 2, 20, 24, true), 20).SharedTokens
	}
	if got := resident(-5); got != 16 {
		t.Fatalf("resident prefix = %d, want 16 (two sealed blocks)", got)
	}
	if got := resident(-6); got != 0 {
		t.Fatalf("foreign group resident %d, want 0", got)
	}
	s.Park(l)
	// Parked state is cold but still resident and indexed.
	if got := resident(-5); got != 16 {
		t.Fatalf("post-park resident prefix = %d, want 16", got)
	}
}

func TestFitsAlone(t *testing.T) {
	s := testStore(t, shareOpt())
	if !s.FitsAlone(64) {
		t.Fatal("64 tokens (8 blocks) should fit an 8-block tier")
	}
	if s.FitsAlone(65) {
		t.Fatal("65 tokens (9 blocks) cannot fit an 8-block tier")
	}
}

// TestNewStoreMintsOnDemand: a store's up-front memory follows its hot tier,
// not its cold tier's capacity. 100 hot blocks under a 10⁴× cold tier span
// about 10⁶ block IDs, which a slab, free stack and index sized for every ID
// would spend tens of MB on before the first request.
func TestNewStoreMintsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewStore(Options{BlockTokens: 16, Sharing: true, ColdFactor: 1e4}, 100, blockMiB)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewStore allocated %d bytes up front, want < 1 MB", got)
	}
	runtime.KeepAlive(s)
}

// TestInitLeaseReuse: a lease reinitialised after Commit keeps its buffers
// and behaves exactly like a fresh one — bounded by its own worst case, not
// by the larger buffers it inherited.
func TestInitLeaseReuse(t *testing.T) {
	reused, fresh := testStore(t, shareOpt()), testStore(t, shareOpt())
	l := newLease(reused, 1, 1, 16, 64, false)
	mustAdmit(t, reused, l, 40)
	if err := reused.Extend(l, 64); err != nil {
		t.Fatal(err)
	}
	reused.Commit(l)
	if allocs := testing.AllocsPerRun(10, func() { reused.InitLease(l, 2, 2, 8, 24, false) }); allocs != 0 {
		t.Fatalf("reinitialising a lease with room allocated %.0f times", allocs)
	}
	// Replay the first lease on the twin store, then run both second leases
	// through the same operations.
	f := newLease(fresh, 1, 1, 16, 64, false)
	mustAdmit(t, fresh, f, 40)
	if err := fresh.Extend(f, 64); err != nil {
		t.Fatal(err)
	}
	fresh.Commit(f)
	f = newLease(fresh, 2, 2, 8, 24, false)
	for _, c := range []struct {
		s *Store
		l *Lease
	}{{reused, l}, {fresh, f}} {
		if p := c.s.PlanAdmit(c.l, 24); p.Growth != 0 || len(c.l.chain) != 3 {
			t.Fatalf("plan at the worst case: growth %d, chain %d; want 0 and 3", p.Growth, len(c.l.chain))
		}
		mustAdmit(t, c.s, c.l, 16)
		if err := c.s.Extend(c.l, 24); err != nil {
			t.Fatal(err)
		}
		if err := c.s.Extend(c.l, 25); err == nil {
			t.Fatal("Extend past the worst case accepted")
		}
		checkInv(t, c.s, c.l)
		if c.l.Blocks() != 3 || c.l.Tokens() != 24 {
			t.Fatalf("lease holds %d blocks and %d tokens, want 3 and 24", c.l.Blocks(), c.l.Tokens())
		}
		c.s.Commit(c.l)
		if _, err := c.s.Admit(c.l, 32); err == nil {
			t.Fatal("Admit past the worst case accepted")
		}
	}
	if reused.Stats() != fresh.Stats() {
		t.Fatalf("reused lease diverged from a fresh one:\n reused %+v\n fresh  %+v", reused.Stats(), fresh.Stats())
	}
}
