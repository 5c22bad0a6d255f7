// Package kv models block-level KV-cache state for the serving engine: the
// per-request length counter of the earlier PRs becomes a store of fixed-size
// token blocks with copy-on-write refcounts, a prefix index, and a two-tier
// hot/cold hierarchy.
//
// Three mechanisms compose:
//
//   - Blocks and refcounts. A request's KV context is a chain of fixed-size
//     blocks (Options.BlockTokens tokens each) plus one private, unsealed
//     partial tail. Full blocks are sealed — immutable once written — and
//     refcounted, so several requests can reference one physical block. All
//     writes land in the private tail; a would-be writer of a sealed block
//     instead re-prefills into a fresh private block (the copy-on-write
//     discipline: sealing is what makes sharing safe).
//
//   - Prefix index. Sealed blocks are keyed by a running hash over the
//     chain of token-block identities, so a request whose context starts
//     with an already-computed prefix — a conversation follow-up carrying
//     the previous turns, a request sharing a system prompt or document —
//     adopts the resident blocks instead of re-prefilling them. The
//     workload is synthetic (lengths only, no literal tokens), so block
//     content identity is derived deterministically from the prefix group
//     and block position; a request without a group gets a private salted
//     chain, which is what lets a preempted request re-adopt its own parked
//     blocks on re-admission.
//
//   - Tiers. Hot blocks live in the attention pool (HBM on the PIM stacks);
//     cold blocks are offloaded across a CXL-2 host link.
//     Promotion and demotion each pay an explicit per-block transfer
//     (bandwidth and link energy; only demand promotions stall the clock —
//     demotion is an asynchronous write-back, see Cost.StallTime).
//     Preemption parks a lease: blocks demote to the cold tier instead of
//     being discarded, so
//     re-admission re-prefills only blocks that were actually evicted.
//
// Eviction is deterministic — each tier retires its least recently idled
// block first — and only ever touches idle blocks: a block with active
// references is never a candidate. The invariants (refcount conservation,
// tier occupancy, the free/referenced exclusion) are exported through
// CheckInvariants and pinned by randomized property tests and
// FuzzBlockStore.
//
// A store always shares: the serving engine builds one only when
// Options.Sharing is set, and keeps its per-request byte ledger otherwise.
package kv

import (
	"errors"
	"fmt"
	"math"

	"github.com/papi-sim/papi/internal/interconnect"
	"github.com/papi-sim/papi/internal/units"
)

// errHotFull is the allocator's failure mode: every legitimate caller is
// guarded by the CommittedBlocks ≤ HotBlocks admission invariant, so seeing
// this error means the invariant was bypassed. A sentinel (not fmt.Errorf)
// keeps the noalloc-annotated allocation path allocation-free.
var errHotFull = errors.New("kv: hot tier full with no idle block")

// Options configures a block store.
type Options struct {
	// BlockTokens is the tokens-per-block granularity; 0 selects 32 (the
	// vLLM-style default: coarse enough that block bookkeeping is noise,
	// fine enough that partial-tail waste stays small).
	BlockTokens int
	// Sharing enables block-level KV management: the prefix index and the
	// cold tier. NewStore requires it; without it the serving engine keeps
	// its per-request byte ledger and builds no store.
	Sharing bool
	// ColdFactor sizes the cold tier as a multiple of the hot tier's block
	// count; 0 selects 4. Negative disables the cold tier (evictions and
	// parks then discard). It must be finite.
	ColdFactor float64
}

// DefaultOptions returns the sharing-enabled configuration the kvcache
// figure sweeps around.
func DefaultOptions() Options { return Options{BlockTokens: 32, Sharing: true} }

// Resolved returns the options with every zero-value default filled in —
// the geometry NewStore will actually use, which callers need ahead of
// construction to size the store (block footprint = model KV bytes over
// BlockTokens tokens).
func (o Options) Resolved() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.BlockTokens <= 0 {
		o.BlockTokens = 32
	}
	if o.ColdFactor == 0 {
		o.ColdFactor = 4
	}
	if o.ColdFactor < 0 {
		o.ColdFactor = 0
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.BlockTokens < 0 {
		return fmt.Errorf("kv: block size %d tokens must be positive", o.BlockTokens)
	}
	if math.IsNaN(o.ColdFactor) || math.IsInf(o.ColdFactor, 0) {
		return fmt.Errorf("kv: cold-tier factor %v must be finite", o.ColdFactor)
	}
	return nil
}

// Block tiers. Free blocks are on the allocation stack; hot blocks occupy
// attention-pool (HBM) capacity; cold blocks occupy host-offload capacity.
const (
	tierFree = int8(iota)
	tierHot
	tierCold
)

// nilRef terminates the intrusive idle lists.
const nilRef = int32(-1)

// block is one slab entry. Links (prev/next) thread the idle queue the
// block currently sits on; refs counts the active leases holding it.
type block struct {
	refs int32
	tier int8
	hash uint64 // sealed chain identity; 0 for unsealed tails
	prev int32
	next int32
}

// list is an intrusive FIFO over the slab: head is the oldest idle block —
// the eviction candidate — and new idles push on the tail, so the order is
// exactly least-recently-idled.
type list struct{ head, tail int32 }

// Stats is the store's cumulative activity, surfaced through
// serving.Result.KV for the kvcache figure.
type Stats struct {
	// BlockTokens / HotBlocks / ColdBlocks echo the store geometry.
	BlockTokens int
	HotBlocks   int
	ColdBlocks  int

	// Lookups and Hits count prefix-index probes at admission (block
	// granularity); SharedTokens is the prefill work those hits saved.
	Lookups      int
	Hits         int
	SharedTokens int

	// Block traffic: reuses (hot hits), promotions (cold hits moved up),
	// demotions (hot blocks written back cold), evictions (blocks dropped
	// from either tier, losing their cached state).
	ReusedBlocks   int
	PromotedBlocks int
	DemotedBlocks  int
	EvictedBlocks  int

	// Transfer totals over the tier link, charged at admission and
	// preemption instants.
	TransferBytes  units.Bytes
	TransferTime   units.Seconds
	TransferEnergy units.Joules

	// PeakCommitted is the high-water mark of committed hot slots
	// (referenced blocks plus growth reservations).
	PeakCommitted int

	// Fault-path accounting: leases surrendered to a crash or cancellation,
	// and the blocks whose cached state died with them. Omitted when zero so
	// fault-free Results keep their pre-fault serialisation byte-for-byte.
	SurrenderedLeases int `json:",omitempty"`
	LostBlocks        int `json:",omitempty"`
}

// Store is a block-granular KV cache for one serving engine. It is not
// safe for concurrent use; the serving stepper drives it from its
// single-threaded admission/decode loop.
type Store struct {
	opt        Options
	blockBytes units.Bytes

	hotCap  int
	coldCap int

	hotUsed  int // resident hot blocks
	coldUsed int // resident cold blocks
	refHot   int // hot blocks with refs > 0
	reserve  int // hot slots reserved for active leases' decode growth

	// blocks is the slab of minted blocks; IDs are minted on demand (see
	// allocBlock), so its length is the most blocks ever resident at once,
	// never more than hotCap + coldCap.
	blocks []block
	free   []int32 // stack of freed slab IDs, reused before minting anew
	index  map[uint64]int32

	// Idle queues: each tier's resident ref-0 blocks, in the order they
	// went idle.
	hotIdle  list
	coldIdle list

	stats Stats
}

// NewStore builds a store of hotBlocks hot slots (the attention pool's
// capacity divided by the block footprint) with blockBytes bytes per block.
// The options must enable sharing.
func NewStore(opt Options, hotBlocks int, blockBytes units.Bytes) (*Store, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if !opt.Sharing {
		return nil, fmt.Errorf("kv: a block store needs Sharing; without it serving keeps the byte ledger")
	}
	opt = opt.withDefaults()
	if hotBlocks < 1 {
		return nil, fmt.Errorf("kv: hot tier of %d blocks must hold at least one", hotBlocks)
	}
	if blockBytes <= 0 {
		return nil, fmt.Errorf("kv: block footprint %v must be positive", blockBytes)
	}
	// Block IDs are int32, which bounds the slab both tiers share.
	cold := opt.ColdFactor * float64(hotBlocks)
	if float64(hotBlocks)+cold > math.MaxInt32 {
		return nil, fmt.Errorf("kv: %d hot blocks with cold-tier factor %v exceed the int32 block-ID space",
			hotBlocks, opt.ColdFactor)
	}
	coldCap := int(cold)
	// The slab and the index start at the hot tier's size and grow as the
	// tiers fill, so a large cold tier costs memory only once it is used.
	s := &Store{
		opt:        opt,
		blockBytes: blockBytes,
		hotCap:     hotBlocks,
		coldCap:    coldCap,
		blocks:     make([]block, 0, hotBlocks),
		free:       make([]int32, 0, hotBlocks),
		index:      make(map[uint64]int32, hotBlocks),
	}
	s.hotIdle = list{nilRef, nilRef}
	s.coldIdle = list{nilRef, nilRef}
	s.stats.BlockTokens = opt.BlockTokens
	s.stats.HotBlocks = hotBlocks
	s.stats.ColdBlocks = coldCap
	return s, nil
}

// BlockTokens reports the store's block granularity.
func (s *Store) BlockTokens() int { return s.opt.BlockTokens }

// HotBlocks reports the hot tier's capacity in blocks.
func (s *Store) HotBlocks() int { return s.hotCap }

// Stats snapshots the cumulative counters.
func (s *Store) Stats() Stats { return s.stats }

// TierBytes reports resident bytes per tier (occupancy × block footprint).
func (s *Store) TierBytes() (hot, cold units.Bytes) {
	return s.blockBytes.Scale(float64(s.hotUsed)), s.blockBytes.Scale(float64(s.coldUsed))
}

// CommittedBlocks reports hot slots pledged to active leases: referenced
// blocks plus growth reservations. The admission invariant is
// CommittedBlocks ≤ HotBlocks, which is what guarantees every mid-decode
// block extension finds a slot without touching a referenced block.
func (s *Store) CommittedBlocks() int { return s.refHot + s.reserve }

// FitsAlone reports whether a request of at most maxTokens context can ever
// hold its worst-case block chain in the hot tier — the block-granular
// analogue of the single-request capacity check.
func (s *Store) FitsAlone(maxTokens int) bool {
	return ceilDiv(maxTokens, s.opt.BlockTokens) <= s.hotCap
}

// ---------------------------------------------------------------------------
// Intrusive idle-queue plumbing.

func (s *Store) listPush(l *list, id int32) {
	b := &s.blocks[id]
	b.prev, b.next = l.tail, nilRef
	if l.tail != nilRef {
		s.blocks[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
}

func (s *Store) listRemove(l *list, id int32) {
	b := &s.blocks[id]
	if b.prev != nilRef {
		s.blocks[b.prev].next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nilRef {
		s.blocks[b.next].prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nilRef, nilRef
}

// pushIdle queues a block that just became resident-with-zero-refs.
func (s *Store) pushIdle(id int32) {
	if s.blocks[id].tier == tierHot {
		s.listPush(&s.hotIdle, id)
	} else {
		s.listPush(&s.coldIdle, id)
	}
}

// popIdle removes and returns a tier's least recently idled block, or nilRef
// when the tier has no idle block.
func (s *Store) popIdle(l *list) int32 {
	id := l.head
	if id != nilRef {
		s.listRemove(l, id)
	}
	return id
}

// ---------------------------------------------------------------------------
// Slot management.

// unindex drops a sealed block's hash from the prefix index.
func (s *Store) unindex(id int32) {
	b := &s.blocks[id]
	if b.hash != 0 {
		delete(s.index, b.hash)
		b.hash = 0
	}
}

// freeBlock returns a resident block to the allocation stack.
func (s *Store) freeBlock(id int32) {
	b := &s.blocks[id]
	s.unindex(id)
	if b.tier == tierHot {
		s.hotUsed--
	} else {
		s.coldUsed--
	}
	*b = block{tier: tierFree, prev: nilRef, next: nilRef}
	s.free = append(s.free, id)
}

// dropColdIdle evicts one cold block (state lost) to open a cold slot.
func (s *Store) dropColdIdle() bool {
	id := s.popIdle(&s.coldIdle)
	if id == nilRef {
		return false
	}
	s.stats.EvictedBlocks++
	s.freeBlock(id)
	return true
}

// evictHotIdle frees one hot slot by retiring an idle hot block. When
// demote is true (admission and preemption instants, where transfer time is
// charged to the clock) and a cold slot is free, the block is written back
// to the cold tier over the link; otherwise its cached state is dropped.
// Mid-decode extensions pass demote=false: they must stay time-free, so
// capacity pressure there silently discards idle cache instead of paying a
// writeback. Returns false when no idle hot block exists — which the
// CommittedBlocks ≤ HotBlocks admission invariant rules out for every
// legitimate caller.
//
//papivet:noalloc
func (s *Store) evictHotIdle(demote bool, c *Cost) bool {
	id := s.popIdle(&s.hotIdle)
	if id == nilRef {
		return false
	}
	b := &s.blocks[id]
	if demote && s.coldUsed < s.coldCap {
		b.tier = tierCold
		s.hotUsed--
		s.coldUsed++
		s.pushIdle(id)
		s.chargeTransfer(c, false)
		s.stats.DemotedBlocks++
		return true
	}
	s.stats.EvictedBlocks++
	s.freeBlock(id)
	return true
}

// allocBlock claims a hot slot for a brand-new block and returns its ID,
// evicting an idle hot block first when the tier is full. The ID is the
// most recently freed one, or else the next never-used one: the order a
// stack pre-filled with every ID in ascending order would hand them out.
// refs starts at 1.
//
//papivet:noalloc
func (s *Store) allocBlock(demote bool, c *Cost) (int32, error) {
	if s.hotUsed == s.hotCap {
		if !s.evictHotIdle(demote, c) {
			return nilRef, errHotFull
		}
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.mint()
	}
	b := &s.blocks[id]
	b.tier = tierHot
	b.refs = 1
	s.hotUsed++
	s.refHot++
	return id, nil
}

// mint grows the slab by one never-used block and returns its ID. Every
// minted block is resident or on the free stack, so the slab never exceeds
// hotCap + coldCap blocks.
func (s *Store) mint() int32 {
	s.blocks = append(s.blocks, block{})
	return int32(len(s.blocks) - 1)
}

// promote moves a cold resident block into the hot tier (paying the uplink
// transfer), evicting an idle hot block if the tier is full. The caller has
// already removed it from the cold idle queue.
func (s *Store) promote(id int32, c *Cost) error {
	if s.hotUsed == s.hotCap {
		if !s.evictHotIdle(true, c) {
			return errHotFull
		}
	}
	b := &s.blocks[id]
	b.tier = tierHot
	s.coldUsed--
	s.hotUsed++
	s.chargeTransfer(c, true)
	s.stats.PromotedBlocks++
	return nil
}

// chargeTransfer prices one block crossing the tier link. stall marks a
// demand transfer (promotion) the caller must wait on; write-backs pass
// false and only occupy the link (see Cost.StallTime).
func (s *Store) chargeTransfer(c *Cost, stall bool) {
	tr := interconnect.CXL2().Send(s.blockBytes)
	c.TransferBytes += s.blockBytes
	c.TransferTime += tr.Time
	c.TransferEnergy += tr.Energy
	if stall {
		c.StallTime += tr.Time
	}
	s.stats.TransferBytes += s.blockBytes
	s.stats.TransferTime += tr.Time
	s.stats.TransferEnergy += tr.Energy
}

func (s *Store) notePeak() {
	if c := s.CommittedBlocks(); c > s.stats.PeakCommitted {
		s.stats.PeakCommitted = c
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
