package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minUnits is the fewest units a run measures, whatever --seconds says, so
// the shortest setup and the medians are each chosen from several.
const minUnits = 3

// probe is a snapshot of the process counters the metrics are deltas of.
type probe struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocs     uint64        // heap objects allocated, cumulative
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sample() probe {
	p := probe{wall: time.Now(), cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocs, p.allocBytes = ms.Mallocs, ms.TotalAlloc
	metrics.Read(runtimeSamples)
	p.gcCycles = runtimeSamples[0].Value.Uint64()
	p.gcCPU = runtimeSamples[1].Value.Float64()
	return p
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark, so that the next
// peakRSS read covers one unit rather than the process's whole life.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set in bytes since the last
// resetPeakRSS.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return n * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// liveHeap is the heap still reachable after collection. FreeOSMemory's
// second cycle also empties the sync.Pool victim caches, which survive one,
// and it hands freed pages back, so the next unit's peak RSS starts clean.
func liveHeap() uint64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measurement is one unit's host cost. The timed region runs from the
// unit's first simulated step (mark) to the end of the run; setup is
// everything before it.
type measurement struct {
	setup, wall, cpu   time.Duration
	completed          int // simulated requests completed
	allocs, allocBytes uint64
	gcCycles           uint64
	gcCPU              float64
	retained           int64   // live heap bytes the result holds
	peakRSS            float64 // bytes
}

// measure runs one unit. The previous unit's result must already be
// unreachable so that the baseline excludes it. A peak-RSS mark that cannot
// be reset or read fails the unit, as a run error does.
func measure(u unit, tr *unitTrace) (measurement, *outcome, error) {
	base := liveHeap()
	if err := resetPeakRSS(); err != nil {
		return measurement{}, nil, fmt.Errorf("resetting the peak RSS mark: %w", err)
	}
	start := time.Now()
	var first probe
	marked := false
	mark := func() { first, marked = sample(), true }
	out, err := u.run(mark, tr)
	end := sample()
	if !marked {
		first = end
	}
	m := measurement{
		setup:      first.wall.Sub(start),
		wall:       end.wall.Sub(first.wall),
		cpu:        end.cpu - first.cpu,
		allocs:     end.allocs - first.allocs,
		allocBytes: end.allocBytes - first.allocBytes,
		gcCycles:   end.gcCycles - first.gcCycles,
		gcCPU:      end.gcCPU - first.gcCPU,
	}
	rss, rssErr := peakRSS()
	m.peakRSS = rss
	m.retained = int64(liveHeap()) - int64(base)
	runtime.KeepAlive(out)
	switch {
	case err != nil:
	case !marked:
		err = fmt.Errorf("the unit never reached a simulated step")
	case rssErr != nil:
		err = fmt.Errorf("reading the peak RSS: %w", rssErr)
	default:
		m.completed = out.completed
	}
	return m, out, err
}

// tally accumulates a run's units.
type tally struct {
	sent      int
	attempted int
	failed    int
	want      string // the digest every unit must reproduce
	pinned    bool
	rep       *report
}

func newTally(w workload, u unit, seed int64, rep *report) *tally {
	t := &tally{sent: u.sent(), rep: rep}
	if seed == defaultSeed {
		t.want, t.pinned = pinnedDigests[w.name]
	}
	return t
}

// check folds one unit's outcome into the ledger: a run error, a request
// ledger that does not balance, or a digest that differs from the pin (at
// the default seed) or from the run's first unit (at any seed) counts every
// request of the unit as failed.
func (t *tally) check(out *outcome, err error) bool {
	t.attempted += t.sent
	ok := err == nil
	switch {
	case err != nil:
		t.rep.note("run error: %v", err)
	case out.sent != t.sent:
		t.rep.note("sent %d requests, want %d", out.sent, t.sent)
		ok = false
	case out.completed+out.simFailed != out.sent:
		t.rep.note("ledger: %d completed + %d failed in simulation != %d sent", out.completed, out.simFailed, out.sent)
		ok = false
	default:
		got := hex.EncodeToString(out.digest[:])
		if t.want == "" {
			t.want = got
			t.rep.note("output digest %s", got)
		}
		if got != t.want {
			t.rep.note("output digest %s, want %s", got, t.want)
			ok = false
		}
	}
	if !ok {
		t.failed += t.sent
	}
	return ok
}

// run measures workload w under cfg.
func run(w workload, cfg config) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metric{}, workload: w.name, seed: cfg.seed}
	genStart := time.Now()
	u, err := w.gen(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	genTime := time.Since(genStart)
	if cfg.trace {
		traced(w, u, cfg, rep, genTime)
	} else {
		untraced(w, u, cfg, rep)
	}
	rep.Correct = rep.Correct && rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

func untraced(w workload, u unit, cfg config, rep *report) {
	t := newTally(w, u, cfg.seed, rep)
	var ms []measurement
	start := time.Now()
	for n := 1; ; n++ {
		m, out, err := measure(u, nil)
		if t.check(out, err) {
			ms = append(ms, m)
		}
		if n >= minUnits && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	rep.units = len(ms)
	rep.Attempted, rep.Failed = t.attempted, t.failed
	if t.pinned && t.failed == 0 {
		rep.note("output digest matches the pin")
	}

	var cpus, setups, retained, rss []float64
	var allocs, bytes uint64
	for _, m := range ms {
		cpus = append(cpus, m.cpu.Seconds()/float64(m.completed))
		setups = append(setups, m.setup.Seconds())
		retained = append(retained, float64(m.retained)/1e6)
		rss = append(rss, m.peakRSS/1e6)
		allocs += m.allocs
		bytes += m.allocBytes
	}
	requests := float64(len(ms) * t.sent)
	rep.set("req_per_s", rate(ms), "req/s")
	rep.set("cpu_us_per_req", 1e6*median(cpus), "us")
	rep.set("setup_s", best(setups), "s")
	rep.set("max_rss_mb", median(rss), "MB")
	rep.set("retained_mb", median(retained), "MB")
	rep.set("allocs_per_req", float64(allocs)/requests, "count")
	rep.set("alloc_bytes_per_req", float64(bytes)/requests, "B")
}

// rate is the median over a run's units of their throughput: simulated
// requests completed per wall second of the timed region.
//
// Other tenants of the shared host contend for its caches and memory, and
// slow whatever runs beside them by up to half, in wall and CPU time alike,
// in spells from a few seconds to minutes long; quiet moments can be as rare
// as one in a few minutes. The median over a run's units follows the host's
// usual state and ignores a spell, slow or quiet, over less than half the
// run. The fastest unit instead hinges on whether a run happened to catch a
// quiet moment: over five fleet-scale runs in a row its spread was about
// half as wide again as the median's.
func rate(ms []measurement) float64 {
	rs := make([]float64, len(ms))
	for i, m := range ms {
		rs[i] = float64(m.completed) / m.wall.Seconds()
	}
	return median(rs)
}

// best is the lowest of a run's per-unit times. Setup is a millisecond or a
// few, so a unit's setup lies wholly inside or outside a slow spell; the
// fastest is the steadiest across runs.
func best(xs []float64) float64 {
	return quantile(xs, 0)
}

// median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty); xs is
// reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q == 0.5 && len(xs)%2 == 0 {
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
