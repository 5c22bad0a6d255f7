package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultSketchK is the per-level capacity of a Sketch. It is sized so that
// every distribution the repo's figure reproductions and tests digest stays
// in the exact regime (count ≤ k ⇒ bit-identical to Quantiles), while a
// million-sample stream is still held in a few tens of kilobytes.
const DefaultSketchK = 2048

// Sketch is a deterministic, mergeable streaming quantile sketch in the
// KLL / Munro–Paterson family: a ladder of weighted sample buffers where
// level i holds samples of weight 2^i. Adds append to level 0; when a level
// overflows its capacity k, the level is sorted and deterministically halved
// (alternating parity, so no systematic rank bias), promoting the kept half
// with doubled weight. There is no randomness anywhere, so the same Add /
// Merge sequence reproduces the same sketch bit-for-bit — the property the
// fleet driver ≡ time-order reference equivalence pins.
//
// Exactness and error bound (pinned by the package tests):
//
//   - While count ≤ k the sketch is exact: Quantile and Summary reproduce
//     the nearest-rank oracle (Quantiles / Summarize) bit-for-bit, which is
//     what keeps every pre-existing golden byte-identical.
//   - Beyond k samples, each compaction at level i perturbs any rank by at
//     most 2^(i-1), giving a worst-case relative rank error of about
//     log2(2n/k)/k — with the default k = 2048 that is under 0.5% rank
//     error at n = 10^6 (p95 of a million samples lands within ±0.5% of
//     the exact rank). Min and Max are always exact.
//
// Merge concatenates the two ladders level by level and only then compacts
// levels that overflow, so merging exact sketches whose union still fits in
// k stays exact — fleet-level summaries over the small fixture fleets remain
// oracle-identical even though they are merged from per-replica sketches.
//
// The zero value is not ready to use; call NewSketch (or NewSketchK).
type Sketch struct {
	k      int
	count  int64
	min    float64
	max    float64
	levels [][]float64
	flips  []bool // per-level compaction parity (alternates each compaction)
}

// NewSketch returns an empty sketch with the default capacity.
func NewSketch() *Sketch { return NewSketchK(DefaultSketchK) }

// NewSketchK returns an empty sketch with per-level capacity k (≥ 2). Small
// capacities exist for tests that need to exercise compaction cheaply.
func NewSketchK(k int) *Sketch {
	if k < 2 {
		k = 2
	}
	return &Sketch{k: k}
}

// K reports the per-level capacity.
func (s *Sketch) K() int { return s.k }

// Count reports how many samples have been added (through Add or Merge).
func (s *Sketch) Count() int64 { return s.count }

// Empty reports whether the sketch holds no samples.
func (s *Sketch) Empty() bool { return s.count == 0 }

// Min returns the exact minimum sample (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Add folds one sample into the sketch.
func (s *Sketch) Add(x float64) {
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	if len(s.levels) == 0 {
		s.levels = append(s.levels, make([]float64, 0, 16))
		s.flips = append(s.flips, false)
	}
	s.levels[0] = append(s.levels[0], x)
	if len(s.levels[0]) > s.k {
		s.compactFrom(0)
	}
}

// Reset empties the sketch, keeping its capacity and allocated storage — the
// windowed-signal reuse pattern (fill, query, reset) allocates nothing in
// steady state.
func (s *Sketch) Reset() {
	s.count = 0
	s.min, s.max = 0, 0
	for i := range s.levels {
		s.levels[i] = s.levels[i][:0]
		s.flips[i] = false
	}
}

// Merge folds o into s (o is unchanged). Ladders are concatenated level by
// level first and compacted only where they overflow, so merging exact
// sketches whose union fits in k is still exact. Merging is deterministic
// but order-sensitive once compaction kicks in; callers that pin
// equivalence fix the merge order (the fleet merges in replica order). When
// capacities differ the merged sketch adopts the smaller k.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	if o.k < s.k {
		s.k = o.k
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, nil)
		s.flips = append(s.flips, false)
	}
	for i, lv := range o.levels {
		s.levels[i] = append(s.levels[i], lv...)
	}
	for i := 0; i < len(s.levels); i++ {
		if len(s.levels[i]) > s.k {
			s.compactFrom(i)
		}
	}
}

// compactFrom halves overflowing levels starting at i, cascading upward.
// Each compaction sorts the level and keeps every other element (parity
// alternating per level); the kept half moves up one level with doubled
// weight. An odd-length level retains its largest element in place so total
// weight is conserved exactly.
func (s *Sketch) compactFrom(i int) {
	for ; i < len(s.levels) && len(s.levels[i]) > s.k; i++ {
		lv := s.levels[i]
		sort.Float64s(lv)
		keepLast := len(lv)%2 == 1
		pairs := lv[:len(lv)-len(lv)%2]
		offset := 0
		if s.flips[i] {
			offset = 1
		}
		s.flips[i] = !s.flips[i]
		if i+1 == len(s.levels) {
			s.levels = append(s.levels, make([]float64, 0, s.k/2+1))
			s.flips = append(s.flips, false)
		}
		for j := offset; j < len(pairs); j += 2 {
			s.levels[i+1] = append(s.levels[i+1], pairs[j])
		}
		if keepLast {
			s.levels[i][0] = lv[len(lv)-1]
			s.levels[i] = s.levels[i][:1]
		} else {
			s.levels[i] = s.levels[i][:0]
		}
	}
}

// view materialises the weighted sample set sorted by value. It allocates;
// queries are cold-path (run aggregation), while hot control loops use the
// exact in-place oracle (PercentileInPlace) instead.
func (s *Sketch) view() (vs []float64, ws []int64) {
	n := 0
	for _, lv := range s.levels {
		n += len(lv)
	}
	vs = make([]float64, 0, n)
	ws = make([]int64, 0, n)
	for i, lv := range s.levels {
		w := int64(1) << uint(i)
		for _, v := range lv {
			vs = append(vs, v)
			ws = append(ws, w)
		}
	}
	sort.Sort(&weightedSamples{vs, ws})
	return vs, ws
}

type weightedSamples struct {
	v []float64
	w []int64
}

func (p *weightedSamples) Len() int           { return len(p.v) }
func (p *weightedSamples) Less(i, j int) bool { return p.v[i] < p.v[j] }
func (p *weightedSamples) Swap(i, j int) {
	p.v[i], p.v[j] = p.v[j], p.v[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// Quantile returns the weighted nearest-rank p-th percentile (0 when empty).
// With every weight 1 — the exact regime — this is bit-identical to
// Percentile over the same samples.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	vs, ws := s.view()
	rank := int64(math.Ceil(p / 100 * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, v := range vs {
		cum += ws[i]
		if cum >= rank {
			return v
		}
	}
	return s.max
}

// Summary digests the sketch at the standard SLO percentiles; in the exact
// regime it is bit-identical to Summarize over the same samples.
func (s *Sketch) Summary() Summary {
	if s.count == 0 {
		return Summary{}
	}
	vs, ws := s.view()
	rankOf := func(p float64) int64 {
		r := int64(math.Ceil(p / 100 * float64(s.count)))
		if r < 1 {
			r = 1
		}
		return r
	}
	r50, r95, r99 := rankOf(50), rankOf(95), rankOf(99)
	var out Summary
	cum := int64(0)
	got50, got95, got99 := false, false, false
	for i, v := range vs {
		cum += ws[i]
		if !got50 && cum >= r50 {
			out.P50, got50 = v, true
		}
		if !got95 && cum >= r95 {
			out.P95, got95 = v, true
		}
		if !got99 && cum >= r99 {
			out.P99, got99 = v, true
		}
		if got99 {
			break
		}
	}
	return out
}

// CountLE returns the (weighted) number of samples ≤ x — the attainment
// numerator. Exact in the exact regime; beyond it, off by at most the
// sketch's rank error.
func (s *Sketch) CountLE(x float64) int64 {
	if s.count == 0 {
		return 0
	}
	if x >= s.max {
		return s.count
	}
	if x < s.min {
		return 0
	}
	n := int64(0)
	for i, lv := range s.levels {
		w := int64(1) << uint(i)
		for _, v := range lv {
			if v <= x {
				n += w
			}
		}
	}
	return n
}

// sketchJSON is the byte-stable wire form: fixed field order, levels in
// ladder order with their exact stored contents.
type sketchJSON struct {
	K      int         `json:"k"`
	Count  int64       `json:"count"`
	Min    float64     `json:"min"`
	Max    float64     `json:"max"`
	Flips  []bool      `json:"flips"`
	Levels [][]float64 `json:"levels"`
}

// MarshalJSON encodes the sketch byte-stably: the same sketch state always
// serialises to the same bytes, so checkpoints embedding sketches round-trip
// export → import → export identically.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(sketchJSON{
		K: s.k, Count: s.count, Min: s.min, Max: s.max,
		Flips: s.flips, Levels: s.levels,
	})
}

// UnmarshalJSON decodes and validates a sketch: capacities, ladder shape,
// and exact weight conservation (Σ len(level i)·2^i must equal count).
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.K < 2 {
		return fmt.Errorf("stats: sketch capacity %d must be ≥ 2", w.K)
	}
	if len(w.Flips) != len(w.Levels) {
		return fmt.Errorf("stats: sketch has %d parity bits for %d levels", len(w.Flips), len(w.Levels))
	}
	total := int64(0)
	for i, lv := range w.Levels {
		total += int64(len(lv)) << uint(i)
	}
	if total != w.Count {
		return fmt.Errorf("stats: sketch weight %d does not conserve count %d", total, w.Count)
	}
	if w.Count < 0 {
		return fmt.Errorf("stats: sketch count %d must be ≥ 0", w.Count)
	}
	s.k, s.count, s.min, s.max = w.K, w.Count, w.Min, w.Max
	s.flips, s.levels = w.Flips, w.Levels
	return nil
}

// PercentileInPlace is the exact nearest-rank percentile computed by sorting
// xs in place: no copy, no allocation. It is the windowed-signal fix for
// control loops that previously paid Percentile's copy-and-sort per tick —
// callers own xs and reset it after reading, so the reorder is harmless.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return percentileSorted(xs, p)
}
