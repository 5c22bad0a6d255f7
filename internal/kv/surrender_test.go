package kv

import (
	"testing"

	"github.com/papi-sim/papi/internal/units"
)

// Surrender must free only what the dead lease alone held: blocks shared
// with a surviving group member keep their references and their cached
// state, while exclusive blocks are lost.
func TestSurrenderSharedBlocksSurvive(t *testing.T) {
	opt := Options{BlockTokens: 4, Sharing: true, ColdFactor: 1}
	s, err := NewStore(opt, 16, units.Bytes(units.MiB))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	a := newLease(s, 1, 1, 8, 16, false)
	if _, err := s.Admit(a, 8); err != nil {
		t.Fatalf("admit a: %v", err)
	}
	b := newLease(s, 1, 2, 8, 16, false)
	c, err := s.Admit(b, 8)
	if err != nil {
		t.Fatalf("admit b: %v", err)
	}
	if c.SharedTokens != 8 {
		t.Fatalf("b shared %d tokens, want 8", c.SharedTokens)
	}

	s.Surrender(a)
	if err := s.CheckInvariants([]*Lease{b}); err != nil {
		t.Fatalf("after surrendering a: %v", err)
	}
	st := s.Stats()
	if st.SurrenderedLeases != 1 {
		t.Fatalf("SurrenderedLeases = %d, want 1", st.SurrenderedLeases)
	}
	if st.LostBlocks != 0 {
		t.Fatalf("LostBlocks = %d, want 0: b still references every block", st.LostBlocks)
	}

	// Surrendering the survivor loses its now-exclusive blocks.
	s.Surrender(b)
	if err := s.CheckInvariants(nil); err != nil {
		t.Fatalf("after surrendering b: %v", err)
	}
	st = s.Stats()
	if st.SurrenderedLeases != 2 {
		t.Fatalf("SurrenderedLeases = %d, want 2", st.SurrenderedLeases)
	}
	if st.LostBlocks != 2 {
		t.Fatalf("LostBlocks = %d, want 2 (8 tokens / 4-token blocks)", st.LostBlocks)
	}
	if got := s.CommittedBlocks(); got != 0 {
		t.Fatalf("surrendered store still commits %d hot slots", got)
	}

	// Idempotent on an already-cleared lease.
	s.Surrender(b)
	if got := s.Stats().SurrenderedLeases; got != 2 {
		t.Fatalf("second surrender counted: SurrenderedLeases = %d, want 2", got)
	}
}

// A parked lease holds no references; surrendering it clears the chain and
// counts the lease, but its previously demoted blocks age out of the idle
// queue exactly as a committed parked lease's would.
func TestSurrenderParkedLease(t *testing.T) {
	opt := Options{BlockTokens: 4, Sharing: true, ColdFactor: 1}
	s, err := NewStore(opt, 16, units.Bytes(units.MiB))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	l := newLease(s, -1, 1, 0, 16, true)
	if _, err := s.Admit(l, 8); err != nil {
		t.Fatalf("admit: %v", err)
	}
	s.Park(l)
	if err := s.CheckInvariants(nil); err != nil {
		t.Fatalf("after park: %v", err)
	}
	s.Surrender(l)
	if err := s.CheckInvariants(nil); err != nil {
		t.Fatalf("after surrender: %v", err)
	}
	st := s.Stats()
	if st.SurrenderedLeases != 1 {
		t.Fatalf("SurrenderedLeases = %d, want 1", st.SurrenderedLeases)
	}
	if st.LostBlocks != 0 {
		t.Fatalf("LostBlocks = %d, want 0: a parked lease holds no references", st.LostBlocks)
	}
}
