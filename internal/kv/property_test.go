package kv

import (
	"math/rand"
	"testing"

	"github.com/papi-sim/papi/internal/units"
)

// opReader deals bytes from a fuzz/property input; exhaustion ends the run.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) next() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	b := r.data[r.pos]
	r.pos++
	return b, true
}

// driveBlockStore interprets data as a store geometry plus an operation
// sequence — admissions, extends, parks, resumes, commits, cancels,
// surrenders, with retired leases reused — and audits every invariant after
// every single operation. It returns the final cumulative Stats so callers
// can assert run-to-run determinism.
//
// This is the satellite-1 harness: refcount conservation, the
// free/referenced exclusion, tier occupancy ≡ resident bytes, and
// eviction-never-touches-referenced-state are all enforced by
// Store.CheckInvariants at each step.
func driveBlockStore(t *testing.T, data []byte) Stats {
	t.Helper()
	r := &opReader{data: data}
	g1, _ := r.next()
	g2, _ := r.next()
	g3, _ := r.next()

	opt := Options{
		BlockTokens: 2 + int(g1)%15,
		Sharing:     true,
		ColdFactor:  []float64{-1, 0, 1, 2}[int(g2)%4],
	}
	hot := 2 + int(g3)%24
	s, err := NewStore(opt, hot, units.Bytes(units.MiB))
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	maxCtx := opt.BlockTokens * hot // any larger can never admit

	// Retired leases (committed, cancelled or surrendered) go to spare, and
	// new ones reuse them first, as the serving engine reuses its request
	// records; maxOf remembers each lease's worst-case context.
	var admitted, parked, spare []*Lease
	maxOf := make(map[*Lease]int)
	salt := int64(0)
	audit := func(op string) {
		if err := s.CheckInvariants(admitted); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
	}

	for {
		op, ok := r.next()
		if !ok {
			break
		}
		a1, _ := r.next()
		a2, _ := r.next()
		a3, _ := r.next()
		switch op % 7 {
		case 0: // new lease + admission attempt
			salt++
			group := []int64{0, 1, 2, -1}[int(a1)%4]
			grows := group == -1
			max := 1 + int(a2)%maxCtx
			prefix := 0
			if group != 0 {
				prefix = int(a3) % (max + 1)
			}
			l := new(Lease)
			if n := len(spare); n > 0 {
				l, spare = spare[n-1], spare[:n-1]
			}
			s.InitLease(l, group, salt, prefix, max, grows)
			maxOf[l] = max
			ctx := 1 + int(a3)%max
			if p := s.PlanAdmit(l, ctx); s.CanAdmit(p) {
				if _, err := s.Admit(l, ctx); err != nil {
					t.Fatalf("Admit after CanAdmit=true: %v", err)
				}
				admitted = append(admitted, l)
			}
			audit("admit")
		case 1: // extend an admitted lease
			if len(admitted) == 0 {
				continue
			}
			l := admitted[int(a1)%len(admitted)]
			if room := maxOf[l] - l.tokens; room > 0 {
				if err := s.Extend(l, l.tokens+1+int(a2)%room); err != nil {
					t.Fatalf("Extend: %v", err)
				}
			}
			audit("extend")
		case 2: // park (preempt) an admitted lease
			if len(admitted) == 0 {
				continue
			}
			i := int(a1) % len(admitted)
			l := admitted[i]
			s.Park(l)
			admitted = append(admitted[:i], admitted[i+1:]...)
			parked = append(parked, l)
			audit("park")
		case 3: // resume a parked lease
			if len(parked) == 0 {
				continue
			}
			i := int(a1) % len(parked)
			l := parked[i]
			if p := s.PlanAdmit(l, l.tokens); s.CanAdmit(p) {
				if _, err := s.Admit(l, l.tokens); err != nil {
					t.Fatalf("resume Admit after CanAdmit=true: %v", err)
				}
				parked = append(parked[:i], parked[i+1:]...)
				admitted = append(admitted, l)
			}
			audit("resume")
		case 4: // commit (finish) an admitted lease
			if len(admitted) == 0 {
				continue
			}
			i := int(a1) % len(admitted)
			s.Commit(admitted[i])
			spare = append(spare, admitted[i])
			admitted = append(admitted[:i], admitted[i+1:]...)
			audit("commit")
		case 5: // cancel a parked lease without resuming it
			if len(parked) == 0 {
				continue
			}
			i := int(a1) % len(parked)
			s.Commit(parked[i])
			spare = append(spare, parked[i])
			parked = append(parked[:i], parked[i+1:]...)
			audit("cancel")
		case 6: // surrender (crash/timeout loss) an admitted or parked lease
			if len(admitted)+len(parked) == 0 {
				continue
			}
			i := int(a1) % (len(admitted) + len(parked))
			if i < len(admitted) {
				s.Surrender(admitted[i])
				spare = append(spare, admitted[i])
				admitted = append(admitted[:i], admitted[i+1:]...)
			} else {
				i -= len(admitted)
				s.Surrender(parked[i])
				spare = append(spare, parked[i])
				parked = append(parked[:i], parked[i+1:]...)
			}
			audit("surrender")
		}
	}

	// Drain: every lease path must close the ledger back to empty refs.
	for _, l := range parked {
		s.Commit(l)
	}
	for _, l := range admitted {
		s.Commit(l)
	}
	if err := s.CheckInvariants(nil); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if got := s.CommittedBlocks(); got != 0 {
		t.Fatalf("drained store still commits %d hot slots", got)
	}
	return s.Stats()
}

// TestBlockStoreProperties drives many seeded-random operation sequences
// through the invariant auditor, and replays each to pin determinism: the
// same sequence must produce bit-identical cumulative statistics.
func TestBlockStoreProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 150; seq++ {
		data := make([]byte, 40+rng.Intn(360))
		rng.Read(data)
		first := driveBlockStore(t, data)
		replay := driveBlockStore(t, data)
		if first != replay {
			t.Fatalf("sequence %d not deterministic:\n first %+v\nreplay %+v", seq, first, replay)
		}
	}
}

// FuzzBlockStore lets the fuzzer search for operation sequences that break
// the conservation laws; the seed corpus covers the park/resume/cancel
// paths.
func FuzzBlockStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 6, 0, 1, 200, 30, 0, 2, 100, 16, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{4, 1, 1, 3, 6, 3, 90, 90, 6, 3, 90, 90, 2, 0, 0, 5, 0, 0, 4, 0, 0})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		data := make([]byte, 24+rng.Intn(200))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		driveBlockStore(t, data)
	})
}
