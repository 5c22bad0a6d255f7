package dram

import (
	"fmt"

	"github.com/papi-sim/papi/internal/sim"
	"github.com/papi-sim/papi/internal/units"
)

// Command identifies a DRAM command type.
type Command int

// DRAM command types.
const (
	CmdACT Command = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
)

// String returns the JEDEC mnemonic for the command.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	}
	return fmt.Sprintf("Command(%d)", int(c))
}

// Address locates one column access within a channel.
type Address struct {
	BankGroup int
	Bank      int // bank index within the group
	Row       int
	Col       int
}

// flatBank returns the channel-wide bank index.
func (a Address) flatBank(g Geometry) int { return a.BankGroup*g.BanksPerGroup + a.Bank }

// Request is one column-granular access submitted to the controller.
type Request struct {
	Addr   Address
	Write  bool
	Arrive units.Seconds
	// Broadcast marks an all-bank PIM access: a single command performs the
	// same row/column access in every bank of the channel simultaneously
	// (HBM-PIM's all-bank mode, which is how PIM devices achieve bank-level
	// parallel bandwidth). Broadcast and per-bank requests cannot be mixed in
	// one controller: the device's mode register selects one regime.
	Broadcast bool
	// Done, if non-nil, is invoked when the data transfer completes.
	Done func(finish units.Seconds)

	seq uint64 // submission order, for FCFS ordering
}

// controller access mode, latched by the first submitted request.
type mode int

const (
	modeUnset mode = iota
	modePerBank
	modeAllBank
)

// bankState tracks one bank's FSM and timing registers.
type bankState struct {
	active    bool
	openRow   int
	casIssued bool          // whether a CAS has hit the currently open row
	actReady  units.Seconds // earliest next ACT (tRP after PRE, tRC after ACT)
	casReady  units.Seconds // earliest next CAS to this bank (tRCD after ACT)
	preReady  units.Seconds // earliest next PRE (tRAS/tRTP/tWR)
}

// Stats aggregates controller activity.
type Stats struct {
	Acts, Pres, Reads, Writes, Refreshes uint64
	RowHits, RowMisses                   uint64
	BytesRead, BytesWritten              units.Bytes
	CommandEnergy                        units.Joules
	BackgroundEnergy                     units.Joules
	FirstIssue, LastFinish               units.Seconds
	issuedAny                            bool
}

// RowHitRate returns the fraction of CAS operations that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// TotalEnergy returns command plus background energy.
func (s Stats) TotalEnergy() units.Joules { return s.CommandEnergy + s.BackgroundEnergy }

// Controller simulates one DRAM channel: an FR-FCFS scheduler over a request
// queue, per-bank timing state, tFAW/tRRD/tCCD cross-bank constraints, and
// periodic refresh. It is driven by a sim.Engine so multiple controllers can
// share a simulated timeline.
type Controller struct {
	Geom   Geometry
	Timing Timing
	Energy Energy

	engine *sim.Engine[sim.Event]
	banks  []bankState
	queue  []*Request
	seq    uint64

	// Cross-bank timing registers.
	lastCASAny   units.Seconds   // per channel, any bank group
	lastCASPerBG []units.Seconds // per bank group
	lastACTAny   units.Seconds
	lastACTPerBG []units.Seconds
	actWindow    []units.Seconds // timestamps of recent ACTs, for tFAW

	cmdBusFree  units.Seconds
	nextRefresh units.Seconds
	refreshing  bool
	refreshDone units.Seconds
	accessMode  mode

	wakeAt units.Seconds // earliest scheduled wake, to de-duplicate events
	woken  bool

	stats Stats
}

// NewController builds a channel controller attached to the given engine.
func NewController(engine *sim.Engine[sim.Event], g Geometry, t Timing, e Energy) *Controller {
	c := &Controller{
		Geom:         g,
		Timing:       t,
		Energy:       e,
		engine:       engine,
		banks:        make([]bankState, g.Banks()),
		lastCASPerBG: make([]units.Seconds, g.BankGroups),
		lastACTPerBG: make([]units.Seconds, g.BankGroups),
	}
	neg := units.Seconds(-1)
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].actReady = 0
		c.banks[i].casReady = 0
		c.banks[i].preReady = 0
	}
	c.lastCASAny = neg
	c.lastACTAny = neg
	for i := range c.lastCASPerBG {
		c.lastCASPerBG[i] = neg
		c.lastACTPerBG[i] = neg
	}
	c.nextRefresh = t.TREFI
	return c
}

// Stats returns a snapshot of the accumulated statistics. Background energy is
// charged for the span between the first issued command and the current time.
func (c *Controller) Stats() Stats {
	s := c.stats
	if s.issuedAny {
		span := c.engine.Now() - s.FirstIssue
		if span > 0 {
			s.BackgroundEnergy = c.Energy.BackgroundW.Energy(span)
		}
	}
	return s
}

// Pending reports the number of requests still queued.
func (c *Controller) Pending() int { return len(c.queue) }

// Submit enqueues a request. The request's Arrive time must not be in the
// simulated past.
func (c *Controller) Submit(r *Request) error {
	if r.Addr.BankGroup < 0 || r.Addr.BankGroup >= c.Geom.BankGroups {
		return fmt.Errorf("dram: bank group %d out of range [0,%d)", r.Addr.BankGroup, c.Geom.BankGroups)
	}
	if r.Addr.Bank < 0 || r.Addr.Bank >= c.Geom.BanksPerGroup {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", r.Addr.Bank, c.Geom.BanksPerGroup)
	}
	if r.Addr.Row < 0 || r.Addr.Row >= c.Geom.Rows {
		return fmt.Errorf("dram: row %d out of range [0,%d)", r.Addr.Row, c.Geom.Rows)
	}
	if r.Addr.Col < 0 || r.Addr.Col >= c.Geom.ColsPerRow() {
		return fmt.Errorf("dram: column %d out of range [0,%d)", r.Addr.Col, c.Geom.ColsPerRow())
	}
	want := modePerBank
	if r.Broadcast {
		want = modeAllBank
		// Broadcast addresses target the virtual all-bank plane.
		r.Addr.BankGroup, r.Addr.Bank = 0, 0
	}
	if c.accessMode == modeUnset {
		c.accessMode = want
	} else if c.accessMode != want {
		return fmt.Errorf("dram: cannot mix broadcast and per-bank requests in one controller")
	}
	if r.Arrive < c.engine.Now() {
		r.Arrive = c.engine.Now()
	}
	c.seq++
	r.seq = c.seq
	c.queue = append(c.queue, r)
	c.wake(r.Arrive)
	return nil
}

// fanout returns the number of physical banks a command touches.
func (c *Controller) fanout(broadcast bool) uint64 {
	if broadcast {
		return uint64(c.Geom.Banks())
	}
	return 1
}

// wake schedules a pump event at time t unless one is already pending at or
// before t.
func (c *Controller) wake(t units.Seconds) {
	if t < c.engine.Now() {
		t = c.engine.Now()
	}
	if c.woken && c.wakeAt <= t {
		return
	}
	c.woken = true
	c.wakeAt = t
	c.engine.At(t, func(now units.Seconds) {
		c.woken = false
		c.pump(now)
	})
}

// pump issues every command that is legal at the current instant, then
// schedules the next wake at the earliest future opportunity.
func (c *Controller) pump(now units.Seconds) {
	for {
		issued, next := c.tryIssueOne(now)
		if issued {
			continue
		}
		if next > now && next < farFuture {
			c.wake(next)
		}
		return
	}
}

const farFuture = units.Seconds(1 << 40)

// tryIssueOne attempts to issue a single command. It returns whether a
// command was issued and, if not, the earliest time at which progress might
// be possible (farFuture when the queue is empty and no refresh is needed).
func (c *Controller) tryIssueOne(now units.Seconds) (bool, units.Seconds) {
	// An idle controller schedules nothing: refresh obligations are deferred
	// and caught up when the next request arrives. This keeps the simulation
	// finite while preserving refresh's bandwidth/energy impact under load.
	if len(c.queue) == 0 && !c.refreshing {
		return false, farFuture
	}
	// Refresh has priority once due: drain to all-banks-precharged, issue REF.
	if c.refreshing {
		return false, c.refreshDone
	}
	if now >= c.nextRefresh {
		return c.tryRefresh(now)
	}
	next := c.nextRefresh // a refresh is always on the horizon

	// FR-FCFS: pass 1 — oldest row-hit request that can CAS right now;
	// pass 2 — oldest arrived request, advancing its command sequence.
	var hit *Request
	var oldest *Request
	for _, r := range c.queue {
		if r.Arrive > now {
			if r.Arrive < next {
				next = r.Arrive
			}
			continue
		}
		b := &c.banks[r.Addr.flatBank(c.Geom)]
		if b.active && b.openRow == r.Addr.Row {
			if t := c.casIssueTime(r); t <= now && (hit == nil || r.seq < hit.seq) {
				hit = r
			}
		}
		if oldest == nil || r.seq < oldest.seq {
			oldest = r
		}
	}
	if hit != nil {
		c.issueCAS(now, hit)
		return true, 0
	}
	if oldest == nil {
		return false, next
	}

	// Advance the oldest request's command sequence.
	r := oldest
	b := &c.banks[r.Addr.flatBank(c.Geom)]
	switch {
	case b.active && b.openRow == r.Addr.Row:
		t := c.casIssueTime(r)
		if t <= now {
			c.issueCAS(now, r)
			return true, 0
		}
		if t < next {
			next = t
		}
	case b.active: // row conflict: precharge first
		t := c.preIssueTime(b)
		if t <= now {
			c.issuePRE(now, r.Addr)
			return true, 0
		}
		if t < next {
			next = t
		}
	default: // bank idle: activate
		t := c.actIssueTime(r.Addr, b)
		if t <= now {
			c.issueACT(now, r.Addr)
			return true, 0
		}
		if t < next {
			next = t
		}
	}
	return false, next
}

// tryRefresh precharges all banks then issues REF.
func (c *Controller) tryRefresh(now units.Seconds) (bool, units.Seconds) {
	// Find any active bank; precharge the first one that is ready.
	next := farFuture
	allIdle := true
	for i := range c.banks {
		b := &c.banks[i]
		if !b.active {
			continue
		}
		allIdle = false
		t := c.preIssueTime(b)
		if t <= now {
			addr := Address{BankGroup: i / c.Geom.BanksPerGroup, Bank: i % c.Geom.BanksPerGroup}
			c.issuePRE(now, addr)
			return true, 0
		}
		if t < next {
			next = t
		}
	}
	if !allIdle {
		return false, next
	}
	// All banks idle: REF can issue once every bank's tRP has elapsed.
	ready := c.cmdBusFree
	for i := range c.banks {
		if c.banks[i].actReady > ready {
			ready = c.banks[i].actReady
		}
	}
	if ready > now {
		return false, ready
	}
	c.refreshing = true
	c.refreshDone = now + c.Timing.TRFC
	c.stats.Refreshes++
	c.noteIssue(now)
	c.stats.CommandEnergy += units.Joules(c.Energy.RefPJ * 1e-12)
	c.nextRefresh += c.Timing.TREFI
	c.engine.At(c.refreshDone, func(fin units.Seconds) {
		c.refreshing = false
		for i := range c.banks {
			if c.banks[i].actReady < fin {
				c.banks[i].actReady = fin
			}
		}
		c.pump(fin)
	})
	return false, c.refreshDone
}

// actIssueTime computes the earliest legal issue time for ACT to addr.
func (c *Controller) actIssueTime(addr Address, b *bankState) units.Seconds {
	t := b.actReady
	if v := c.lastACTPerBG[addr.BankGroup] + c.Timing.TRRDL; c.lastACTPerBG[addr.BankGroup] >= 0 && v > t {
		t = v
	}
	if v := c.lastACTAny + c.Timing.TRRDS; c.lastACTAny >= 0 && v > t {
		t = v
	}
	if len(c.actWindow) >= 4 {
		if v := c.actWindow[len(c.actWindow)-4] + c.Timing.TFAW; v > t {
			t = v
		}
	}
	if c.cmdBusFree > t {
		t = c.cmdBusFree
	}
	return t
}

// casIssueTime computes the earliest legal issue time for RD/WR of r.
func (c *Controller) casIssueTime(r *Request) units.Seconds {
	b := &c.banks[r.Addr.flatBank(c.Geom)]
	t := b.casReady
	if v := c.lastCASPerBG[r.Addr.BankGroup] + c.Timing.TCCDL; c.lastCASPerBG[r.Addr.BankGroup] >= 0 && v > t {
		t = v
	}
	if v := c.lastCASAny + c.Timing.TCCDS; c.lastCASAny >= 0 && v > t {
		t = v
	}
	if c.cmdBusFree > t {
		t = c.cmdBusFree
	}
	return t
}

// preIssueTime computes the earliest legal issue time for PRE of bank b.
func (c *Controller) preIssueTime(b *bankState) units.Seconds {
	t := b.preReady
	if c.cmdBusFree > t {
		t = c.cmdBusFree
	}
	return t
}

func (c *Controller) noteIssue(now units.Seconds) {
	if !c.stats.issuedAny {
		c.stats.issuedAny = true
		c.stats.FirstIssue = now
	}
	c.cmdBusFree = now + c.Timing.TCK
}

func (c *Controller) issueACT(now units.Seconds, addr Address) {
	b := &c.banks[addr.flatBank(c.Geom)]
	b.active = true
	b.openRow = addr.Row
	b.casIssued = false
	b.casReady = now + c.Timing.TRCD
	b.preReady = now + c.Timing.TRAS
	b.actReady = now + c.Timing.TRC
	c.lastACTAny = now
	c.lastACTPerBG[addr.BankGroup] = now
	c.actWindow = append(c.actWindow, now)
	if len(c.actWindow) > 8 {
		c.actWindow = c.actWindow[len(c.actWindow)-8:]
	}
	n := c.fanout(c.accessMode == modeAllBank)
	c.stats.Acts += n
	c.stats.CommandEnergy += units.Joules(float64(n) * c.Energy.ActPJ * 1e-12)
	c.noteIssue(now)
}

func (c *Controller) issuePRE(now units.Seconds, addr Address) {
	b := &c.banks[addr.flatBank(c.Geom)]
	b.active = false
	b.openRow = -1
	if v := now + c.Timing.TRP; v > b.actReady {
		b.actReady = v
	}
	c.stats.Pres += c.fanout(c.accessMode == modeAllBank)
	c.noteIssue(now)
}

func (c *Controller) issueCAS(now units.Seconds, r *Request) {
	b := &c.banks[r.Addr.flatBank(c.Geom)]
	// Row-hit accounting: the first CAS after a row is opened paid for the
	// activation (a miss); subsequent CASes to the same open row are hits.
	// Broadcast commands count once per physical bank touched.
	hitN := c.fanout(r.Broadcast)
	if b.casIssued {
		c.stats.RowHits += hitN
	} else {
		c.stats.RowMisses += hitN
		b.casIssued = true
	}

	c.lastCASAny = now
	c.lastCASPerBG[r.Addr.BankGroup] = now
	finish := now + c.Timing.TCL + c.Timing.TBL
	n := c.fanout(r.Broadcast)
	if r.Write {
		c.stats.Writes += n
		c.stats.BytesWritten += units.Bytes(float64(n)) * c.Geom.ColBytes
		c.stats.CommandEnergy += units.Joules(float64(n) * c.Energy.WrColPJ * 1e-12)
		if v := finish + c.Timing.TWR; v > b.preReady {
			b.preReady = v
		}
	} else {
		c.stats.Reads += n
		c.stats.BytesRead += units.Bytes(float64(n)) * c.Geom.ColBytes
		c.stats.CommandEnergy += units.Joules(float64(n) * c.Energy.RdColPJ * 1e-12)
		if v := now + c.Timing.TRTP; v > b.preReady {
			b.preReady = v
		}
	}
	if finish > c.stats.LastFinish {
		c.stats.LastFinish = finish
	}
	c.noteIssue(now)

	// Remove r from the queue.
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	if r.Done != nil {
		c.engine.At(finish, r.Done)
	}
}
