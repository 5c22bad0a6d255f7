package kv

import "fmt"

// CheckInvariants audits the store's entire conservation ledger against the
// given set of active (admitted, non-parked) leases. The property suite and
// FuzzBlockStore call it after every operation; the serving engine's own
// invariant fuzzer calls it at every step boundary. It is deliberately
// implemented by slab walk plus per-key index lookups — never by ranging
// over the index map — so the determinism analyzer's map-iteration ban holds
// without waivers. The census covers the minted slab: IDs are minted on
// demand, so an ID past it has never held a block.
//
// The laws checked:
//
//  1. Refcount conservation: Σ block refs ≡ Σ blocks held by active leases
//     (every live logical page is accounted exactly once per holder).
//  2. Free/referenced exclusion: no block is simultaneously on the free
//     stack and referenced (or resident in any tier).
//  3. Tier occupancy: hot/cold counters ≡ the slab census, so occupancy ×
//     block footprint ≡ Σ resident block bytes per tier.
//  4. Eviction safety: the idle queues — the only eviction candidates —
//     contain exactly the resident blocks with zero refs; a block with
//     active refs can never be touched by eviction.
//  5. Commitment budget: referenced-hot + growth reservations ≤ hot
//     capacity, with the store's reservation counter ≡ Σ lease reservations.
//  6. Index bijection: hash ≠ 0 ⟺ the block is resident and the index maps
//     its hash back to it, with no stray index entries.
func (s *Store) CheckInvariants(active []*Lease) error {
	total := len(s.blocks)

	// Slab census.
	nFree, nHot, nCold, nRefHot := 0, 0, 0, 0
	sumRefs := 0
	nIndexed := 0
	for id := 0; id < total; id++ {
		b := &s.blocks[id]
		switch b.tier {
		case tierFree:
			nFree++
			if b.refs != 0 {
				return fmt.Errorf("kv: block %d free with %d refs", id, b.refs)
			}
			if b.hash != 0 {
				return fmt.Errorf("kv: block %d free but still indexed", id)
			}
		case tierHot:
			nHot++
			if b.refs > 0 {
				nRefHot++
			}
		case tierCold:
			nCold++
			if b.refs != 0 {
				return fmt.Errorf("kv: block %d cold with %d refs (refs force hot)", id, b.refs)
			}
		default:
			return fmt.Errorf("kv: block %d in unknown tier %d", id, b.tier)
		}
		if b.refs < 0 {
			return fmt.Errorf("kv: block %d refcount underflow (%d)", id, b.refs)
		}
		sumRefs += int(b.refs)
		if b.hash != 0 {
			got, ok := s.index[b.hash]
			if !ok || got != int32(id) {
				return fmt.Errorf("kv: block %d hash not mapped back to it in index", id)
			}
			nIndexed++
		}
	}

	// Free stack ≡ free census, and membership is well-formed.
	if len(s.free) != nFree {
		return fmt.Errorf("kv: free stack holds %d, slab census says %d", len(s.free), nFree)
	}
	for i := 0; i < len(s.free); i++ {
		id := s.free[i]
		if id < 0 || int(id) >= total {
			return fmt.Errorf("kv: free stack entry %d out of range", id)
		}
		if s.blocks[id].tier != tierFree {
			return fmt.Errorf("kv: block %d on free stack but in tier %d", id, s.blocks[id].tier)
		}
	}

	// Tier occupancy counters.
	if nHot != s.hotUsed {
		return fmt.Errorf("kv: hotUsed %d, slab census %d", s.hotUsed, nHot)
	}
	if nCold != s.coldUsed {
		return fmt.Errorf("kv: coldUsed %d, slab census %d", s.coldUsed, nCold)
	}
	if s.hotUsed > s.hotCap || s.coldUsed > s.coldCap {
		return fmt.Errorf("kv: occupancy %d/%d hot %d/%d cold over capacity",
			s.hotUsed, s.hotCap, s.coldUsed, s.coldCap)
	}
	if nRefHot != s.refHot {
		return fmt.Errorf("kv: refHot %d, slab census %d", s.refHot, nRefHot)
	}

	// Commitment budget.
	if s.reserve < 0 {
		return fmt.Errorf("kv: reservation counter underflow (%d)", s.reserve)
	}
	if s.refHot+s.reserve > s.hotCap {
		return fmt.Errorf("kv: committed %d (ref %d + reserve %d) over hot capacity %d",
			s.refHot+s.reserve, s.refHot, s.reserve, s.hotCap)
	}

	// Lease-side conservation.
	held, reserved := 0, 0
	for _, l := range active {
		if l.parked || !l.active {
			return fmt.Errorf("kv: lease in active set is parked=%v active=%v", l.parked, l.active)
		}
		held += len(l.blocks)
		reserved += l.reserve
		for i := 0; i < len(l.blocks); i++ {
			id := l.blocks[i]
			if id < 0 || int(id) >= total {
				return fmt.Errorf("kv: lease block %d out of range", id)
			}
			b := &s.blocks[id]
			if b.tier != tierHot || b.refs < 1 {
				return fmt.Errorf("kv: lease holds block %d (tier %d, refs %d) not referenced-hot",
					id, b.tier, b.refs)
			}
		}
	}
	if sumRefs != held {
		return fmt.Errorf("kv: Σ refs %d ≠ Σ active lease blocks %d", sumRefs, held)
	}
	if reserved != s.reserve {
		return fmt.Errorf("kv: Σ lease reservations %d ≠ store reservation %d", reserved, s.reserve)
	}

	// Idle queues ≡ resident ref-0 blocks, exactly.
	wantHotIdle := s.hotUsed - s.refHot
	gotHotIdle, err := s.auditQueue(&s.hotIdle, tierHot)
	if err != nil {
		return err
	}
	if gotHotIdle != wantHotIdle {
		return fmt.Errorf("kv: hot idle queue holds %d, census says %d", gotHotIdle, wantHotIdle)
	}
	gotColdIdle, err := s.auditQueue(&s.coldIdle, tierCold)
	if err != nil {
		return err
	}
	if gotColdIdle != s.coldUsed {
		return fmt.Errorf("kv: cold idle queue holds %d, census says %d", gotColdIdle, s.coldUsed)
	}

	// Index bijection closes: every entry was visited via some block's hash.
	if len(s.index) != nIndexed {
		return fmt.Errorf("kv: index holds %d entries, %d blocks carry hashes", len(s.index), nIndexed)
	}
	return nil
}

// auditQueue walks one tier's idle queue, validating membership and link
// integrity, and returns the member count.
func (s *Store) auditQueue(q *list, tier int8) (int, error) {
	n := 0
	prev := nilRef
	for id := q.head; id != nilRef; id = s.blocks[id].next {
		b := &s.blocks[id]
		if b.tier != tier {
			return 0, fmt.Errorf("kv: idle block %d on tier-%d queue but in tier %d", id, tier, b.tier)
		}
		if b.refs != 0 {
			return 0, fmt.Errorf("kv: block %d on idle queue with %d refs", id, b.refs)
		}
		if b.prev != prev {
			return 0, fmt.Errorf("kv: idle queue back-link broken at block %d", id)
		}
		prev = id
		n++
		if n > len(s.blocks) {
			return 0, fmt.Errorf("kv: idle queue cycle detected")
		}
	}
	if q.tail != prev {
		return 0, fmt.Errorf("kv: idle queue tail pointer stale (have %d, want %d)", q.tail, prev)
	}
	return n, nil
}
