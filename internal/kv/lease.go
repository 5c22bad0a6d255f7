package kv

import (
	"errors"

	"github.com/papi-sim/papi/internal/units"
)

// splitmix64 constants and the fixed chain start (π digits — nothing up the
// sleeve; any fixed odd constants work, determinism is what matters).
const (
	mixGamma   = 0x9e3779b97f4a7c15
	chainStart = 0x243f6a8885a308d3
	saltGamma  = 0x6a09e667f3bcc909
)

// mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
func mix64(x uint64) uint64 {
	x += mixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chainNext folds one block's content identity into the running prefix hash.
// The chain value at position i identifies the entire token prefix through
// block i, so two requests collide at position i only if every block up to
// and including i matches — which is exactly the prefix-sharing condition.
func chainNext(prev, content uint64) uint64 {
	return mix64(prev ^ content*mixGamma)
}

// seedCanonical derives the group-wide content seed: every lease in a prefix
// group hashes its shared blocks from this seed, so their chains agree.
func seedCanonical(group int64) uint64 { return mix64(uint64(group)) }

// Lease is one request's hold on a chain of blocks. The serving engine
// initialises it once per request (InitLease), Admits it (fresh or resuming
// from a park), Extends it as decode grows the context, Parks it on
// preemption, and Commits it when the request finishes; the lease then
// serves the engine's next request.
type Lease struct {
	group  int64 // prefix group; 0 = no sharing relationship
	grows  bool  // whole context is group-canonical (conversation carry)
	prefix int   // declared shared-prefix tokens (ignored when grows)
	// maxBlocks is the worst-case context in blocks: the reservation bound,
	// and the most blocks the lease ever hashes or holds.
	maxBlocks int
	tokens    int // current context held

	parked bool
	active bool

	seedC uint64 // canonical (group) content seed
	seedP uint64 // private (per-request) content seed
	b     int    // block tokens (copied from the store)

	reserve int // hot slots reserved for this lease's future growth

	// blocks and chain hold at most maxBlocks entries. They are re-sliced,
	// never appended, so the hot path stays allocation-free, and InitLease
	// keeps them, so a reused lease allocates only to outgrow them.
	blocks []int32
	chain  []uint64
}

// errPastReservation is Admit's and Extend's answer to a context past the
// lease's worst case, which its reservation does not cover; like errHotFull
// it is a sentinel, so Extend stays allocation-free.
var errPastReservation = errors.New("kv: context past the lease's worst case")

// InitLease makes l the lease of a request with the given prefix-sharing
// relationship, reusing the block and chain buffers l already has. group 0
// means no sharing (every block private); salt must be unique per request
// (the request ID) so private chains never collide; grows marks
// conversation carry-over, where the entire context — not just a fixed
// prefix — is canonical to the group and future turns may adopt it. l must
// hold no blocks: a zero Lease, or one that was committed or surrendered.
func (s *Store) InitLease(l *Lease, group, salt int64, prefixTokens, maxTokens int, grows bool) {
	maxBlocks := ceilDiv(maxTokens, s.opt.BlockTokens)
	blocks, chain := l.blocks[:0], l.chain[:0]
	if cap(blocks) < maxBlocks {
		blocks, chain = make([]int32, 0, maxBlocks), make([]uint64, 0, maxBlocks)
	}
	*l = Lease{
		group:     group,
		grows:     grows,
		prefix:    prefixTokens,
		maxBlocks: maxBlocks,
		seedC:     seedCanonical(group),
		seedP:     mix64(mix64(uint64(salt)+saltGamma) ^ uint64(group)),
		b:         s.opt.BlockTokens,
		blocks:    blocks,
		chain:     chain,
	}
}

// Tokens reports the context the lease currently holds.
func (l *Lease) Tokens() int { return l.tokens }

// Parked reports whether the lease sits preempted with state demoted.
func (l *Lease) Parked() bool { return l.parked }

// Active reports whether the lease currently holds block references.
func (l *Lease) Active() bool { return l.active }

// Blocks reports how many blocks the lease currently references.
func (l *Lease) Blocks() int { return len(l.blocks) }

// canonical reports whether block position i carries group-shared content:
// every position when the context is conversation carry-over, otherwise only
// positions fully inside the declared shared prefix.
func (l *Lease) canonical(i int) bool {
	if l.group == 0 {
		return false
	}
	return l.grows || (i+1)*l.b <= l.prefix
}

// contentID is block position i's content identity: group-derived for
// canonical positions (so group members agree), salted per-request otherwise
// (so a private chain is only ever re-found by its own parked lease).
func (l *Lease) contentID(i int) uint64 {
	seed := l.seedP
	if l.canonical(i) {
		seed = l.seedC
	}
	return mix64(seed ^ uint64(i)*mixGamma)
}

// ensureChain extends the prefix-hash chain to cover n block positions.
//
//papivet:noalloc
func (l *Lease) ensureChain(n int) {
	if n > l.maxBlocks {
		n = l.maxBlocks
	}
	for len(l.chain) < n {
		i := len(l.chain)
		prev := uint64(chainStart)
		if i > 0 {
			prev = l.chain[i-1]
		}
		l.chain = l.chain[:i+1]
		l.chain[i] = chainNext(prev, l.contentID(i))
	}
}

// Plan is an admission dry-run: how a context of ctx tokens would land in
// the store right now.
type Plan struct {
	Blocks       int // total blocks the context occupies
	Run          int // leading full blocks found resident (index hits)
	Promote      int // of Run, cold blocks needing an uplink transfer
	AdoptIdle    int // of Run, idle hot blocks (refs 0 → 1)
	New          int // blocks to allocate and prefill (incl. partial tail)
	Growth       int // hot slots to reserve for future decode growth
	SharedTokens int // prefill tokens the Run saves
}

// CommitSlots is the hot-tier commitment the admission would add: newly
// referenced blocks plus growth reservations. Adopting an already-referenced
// block is free — it is the sharing win.
func (p Plan) CommitSlots() int { return p.AdoptIdle + p.Promote + p.New + p.Growth }

// PlanAdmit walks the lease's prefix chain against the index and reports how
// an admission at ctx context tokens would land. It mutates nothing and
// bumps no statistics, so admission checks and scheduling probes may call it
// freely. Reuse stops at the first missing block: only a contiguous leading
// run is adoptable, because attention state at position i depends on all
// earlier positions.
//
//papivet:noalloc
func (s *Store) PlanAdmit(l *Lease, ctx int) Plan {
	var p Plan
	full := ctx / s.opt.BlockTokens
	p.Blocks = ceilDiv(ctx, s.opt.BlockTokens)
	p.Growth = l.maxBlocks - p.Blocks
	l.ensureChain(full)
	for i := 0; i < full; i++ {
		id, ok := s.index[l.chain[i]]
		if !ok {
			break
		}
		b := &s.blocks[id]
		if b.tier == tierCold {
			p.Promote++
		} else if b.refs == 0 {
			p.AdoptIdle++
		}
		p.Run++
	}
	p.New = p.Blocks - p.Run
	p.SharedTokens = p.Run * s.opt.BlockTokens
	return p
}

// CanAdmit reports whether the planned admission fits the hot tier's
// commitment budget. Admitting only under this predicate is what guarantees
// every later mid-decode Extend finds a slot without touching referenced
// state.
func (s *Store) CanAdmit(p Plan) bool {
	return s.refHot+s.reserve+p.CommitSlots() <= s.hotCap
}

// Cost is the side-effect bill of one store operation, charged by the
// serving engine to the simulated clock and energy meters.
type Cost struct {
	SharedTokens   int // prefill tokens satisfied from resident blocks
	ReusedBlocks   int // hot index hits adopted
	PromotedBlocks int // cold index hits pulled up over the link
	NewBlocks      int // blocks allocated and prefilled
	DemotedBlocks  int // blocks written back to the cold tier
	TransferBytes  units.Bytes
	TransferTime   units.Seconds
	TransferEnergy units.Joules
	// StallTime is the demand-critical share of TransferTime: promotions,
	// which an admission must wait on before the adopted context is hot.
	// Demotions are asynchronous write-backs of idle state — the victim's
	// data drains over the host link while prefill proceeds on the stacks —
	// so they occupy the link (TransferTime, energy) without stalling the
	// batch.
	StallTime units.Seconds
}

// Admit materializes a context of ctx tokens for the lease: leading resident
// blocks are adopted (cold ones promoted over the link), the remainder is
// allocated fresh, and hot slots are reserved for decode growth up to the
// lease's max. It serves both a fresh request and a parked lease resuming
// after preemption — in the latter case blocks that survived in either tier
// are re-adopted and only evicted ones land in New (the re-prefill tax).
// The caller must have checked CanAdmit with a plan at the same ctx.
func (s *Store) Admit(l *Lease, ctx int) (Cost, error) {
	var c Cost
	full := ctx / s.opt.BlockTokens
	need := ceilDiv(ctx, s.opt.BlockTokens)
	if need > l.maxBlocks {
		return c, errPastReservation
	}
	l.blocks = l.blocks[:0]

	run := 0
	l.ensureChain(full)
	for i := 0; i < full; i++ {
		s.stats.Lookups++
		id, ok := s.index[l.chain[i]]
		if !ok {
			break
		}
		b := &s.blocks[id]
		if b.tier == tierCold {
			// All cold blocks are idle (refs>0 forces hot).
			s.listRemove(&s.coldIdle, id)
			if err := s.promote(id, &c); err != nil {
				s.pushIdle(id)
				return c, err
			}
			c.PromotedBlocks++
		} else if b.refs == 0 {
			s.listRemove(&s.hotIdle, id)
			c.ReusedBlocks++
			s.stats.ReusedBlocks++
		} else {
			c.ReusedBlocks++
			s.stats.ReusedBlocks++
		}
		if b.refs == 0 {
			s.refHot++
		}
		b.refs++
		s.stats.Hits++
		l.blocks = l.blocks[:i+1]
		l.blocks[i] = id
		run++
	}

	for i := run; i < need; i++ {
		id, err := s.allocBlock(true, &c)
		if err != nil {
			return c, err
		}
		if i < full {
			s.seal(l, i, id)
		}
		c.NewBlocks++
		l.blocks = l.blocks[:i+1]
		l.blocks[i] = id
	}

	l.reserve = l.maxBlocks - need
	s.reserve += l.reserve
	l.tokens = ctx
	l.parked = false
	l.active = true
	c.SharedTokens = run * s.opt.BlockTokens
	s.stats.SharedTokens += c.SharedTokens
	s.notePeak()
	return c, nil
}

// seal marks block position i immutable and publishes it in the prefix
// index. A position whose hash is already resident (a racing duplicate from
// a non-contiguous survivor) stays unindexed: the incumbent keeps serving
// hits and this copy dies private.
//
//papivet:noalloc
func (s *Store) seal(l *Lease, i int, id int32) {
	l.ensureChain(i + 1)
	h := l.chain[i]
	if _, dup := s.index[h]; dup {
		return
	}
	s.blocks[id].hash = h
	s.index[h] = id
}

// Extend grows an admitted lease's context to ctx tokens, sealing blocks as
// they fill and drawing new ones from the lease's growth reservation. It is
// the decode hot path: allocation-free, transfer-free (capacity pressure
// here drops idle cache rather than paying a writeback), and callable once
// per generated token or once per bulk macro-step window.
//
//papivet:noalloc
func (s *Store) Extend(l *Lease, ctx int) error {
	if ctx <= l.tokens {
		return nil
	}
	oldFull := l.tokens / s.opt.BlockTokens
	newFull := ctx / s.opt.BlockTokens
	need := ceilDiv(ctx, s.opt.BlockTokens)
	if need > l.maxBlocks {
		return errPastReservation
	}

	// The previous partial tail may have filled: seal it in place.
	if len(l.blocks) > oldFull && newFull > oldFull {
		s.seal(l, oldFull, l.blocks[oldFull])
	}

	for i := len(l.blocks); i < need; i++ {
		var c Cost
		id, err := s.allocBlock(false, &c)
		if err != nil {
			return err
		}
		l.reserve--
		s.reserve--
		if i < newFull {
			s.seal(l, i, id)
		}
		l.blocks = l.blocks[:i+1]
		l.blocks[i] = id
	}
	l.tokens = ctx
	return nil
}

// decref releases one reference; returns true when the block went idle.
func (s *Store) decref(id int32) bool {
	b := &s.blocks[id]
	b.refs--
	if b.refs > 0 {
		return false
	}
	s.refHot--
	return true
}

// Park releases a preempted lease's hold without discarding the computed
// state: the private tail is dropped (its tokens are the resume re-prefill
// floor), sealed blocks still referenced elsewhere stay hot untouched, and
// newly idle sealed blocks are written back to the cold tier over the link —
// evicting cold idle state for room, or dropping outright when no cold tier
// exists. The lease keeps its chain so Admit can later re-adopt whatever
// survives.
func (s *Store) Park(l *Lease) Cost {
	var c Cost
	if !l.active {
		return c
	}
	full := l.tokens / s.opt.BlockTokens
	for i := len(l.blocks) - 1; i >= 0; i-- {
		id := l.blocks[i]
		if !s.decref(id) {
			continue
		}
		if i >= full {
			// The unsealed private tail: state gone.
			s.freeBlock(id)
			continue
		}
		// Sealed block going idle: demote hot → cold, making room by
		// evicting cold idle state if needed.
		if s.coldUsed == s.coldCap && !s.dropColdIdle() {
			s.stats.EvictedBlocks++
			s.freeBlock(id)
			continue
		}
		b := &s.blocks[id]
		b.tier = tierCold
		s.hotUsed--
		s.coldUsed++
		s.pushIdle(id)
		s.chargeTransfer(&c, false)
		s.stats.DemotedBlocks++
		c.DemotedBlocks++
	}
	s.reserve -= l.reserve
	l.reserve = 0
	if full > len(l.blocks) {
		full = len(l.blocks)
	}
	l.blocks = l.blocks[:full]
	l.parked = true
	l.active = false
	return c
}

// Commit retires a finished lease. Canonical sealed blocks stay resident and
// indexed — they are the prefix cache future group members hit — moving to
// the idle queues, where eviction retires them least recently idled first.
// Private blocks are freed: no future request can ever re-find them.
func (s *Store) Commit(l *Lease) {
	if !l.active {
		// A parked lease holds no references; its surviving blocks age
		// out of the idle queues.
		l.blocks = l.blocks[:0]
		l.parked = false
		return
	}
	full := l.tokens / s.opt.BlockTokens
	for i := len(l.blocks) - 1; i >= 0; i-- {
		id := l.blocks[i]
		if !s.decref(id) {
			continue
		}
		b := &s.blocks[id]
		if i < full && l.canonical(i) && b.hash != 0 {
			s.pushIdle(id)
			continue
		}
		s.freeBlock(id)
	}
	s.reserve -= l.reserve
	l.reserve = 0
	l.blocks = l.blocks[:0]
	l.active = false
	l.parked = false
}

// Surrender abandons a lease whose owner is gone — a crashed replica's
// request, or one cancelled by a timeout. Unlike Park, nothing is preserved
// for revival: every block the lease alone referenced is freed outright (its
// cached state died with the owner; there is no write-back, because there is
// nobody to drain it for), while blocks shared with other leases survive
// untouched. A parked lease holds no references, so surrendering it just
// clears the chain, exactly as Commit's inactive branch does. Surrender is
// idempotent on an already-cleared lease.
func (s *Store) Surrender(l *Lease) {
	if l.active {
		for i := len(l.blocks) - 1; i >= 0; i-- {
			id := l.blocks[i]
			if !s.decref(id) {
				continue
			}
			s.freeBlock(id)
			s.stats.LostBlocks++
		}
		s.reserve -= l.reserve
	}
	l.reserve = 0
	l.blocks = l.blocks[:0]
	if l.active || l.parked {
		s.stats.SurrenderedLeases++
	}
	l.active = false
	l.parked = false
}

// ParkGain reports exactly how many committed hot slots parking this lease
// would release: blocks only it references, plus its growth reservation.
// The preemption loop uses it as an all-or-nothing precheck before evicting
// victims for a higher-priority admission.
//
//papivet:noalloc
func (s *Store) ParkGain(l *Lease) int {
	gain := l.reserve
	for i := 0; i < len(l.blocks); i++ {
		if s.blocks[l.blocks[i]].refs == 1 {
			gain++
		}
	}
	return gain
}
