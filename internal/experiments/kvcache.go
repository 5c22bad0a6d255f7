package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// KVCacheConfig is one cache configuration under sweep: a display label
// plus the kv.Options the serving engines run with.
type KVCacheConfig struct {
	Label string
	KV    kv.Options
}

// DefaultKVCacheConfigs returns the published sweep: the sharing-off
// baseline (the pre-block byte-ledger engine, bit-identical by the
// equivalence pin) against block sizes 16/32/64 crossed with two tier
// splits — a cramped quarter-size cold tier and the default 4× one. The
// split only matters once demotions outrun the smaller tier's capacity, so
// the two sizes bracket the regime where parked state starts getting
// evicted instead of surviving cold.
func DefaultKVCacheConfigs() []KVCacheConfig {
	out := []KVCacheConfig{
		{Label: "sharing-off", KV: kv.Options{BlockTokens: 32, Sharing: false}},
	}
	for _, b := range []int{16, 32, 64} {
		for _, cold := range []float64{0.25, 4} {
			out = append(out, KVCacheConfig{
				Label: fmt.Sprintf("b%d/cold%gx", b, cold),
				KV:    kv.Options{BlockTokens: b, Sharing: true, ColdFactor: cold},
			})
		}
	}
	return out
}

// KVCacheCell is one (scenario, cache configuration) outcome: the prefill
// ledger the prefix index is meant to shrink, the block traffic between the
// tiers, and the latency the cache motion buys or costs.
type KVCacheCell struct {
	Scenario    string
	Config      string
	BlockTokens int
	ColdFactor  float64
	Sharing     bool

	Requests int
	Tokens   int
	Makespan units.Seconds

	// Prefill ledger: tokens actually prefetched into the cache, the
	// subset that was recomputation of context already paid for once
	// (the re-prefill tax), and the tokens adopted from resident blocks
	// instead (the prefix index's savings).
	PrefillTokens   int
	ReprefillTokens int
	SharedTokens    int

	// Prefix-index traffic at block granularity.
	Lookups int
	Hits    int
	HitRate float64

	// Tier motion: hot adoptions, cold promotions, demotions under
	// pressure, and blocks evicted outright (their state lost).
	ReusedBlocks   int
	PromotedBlocks int
	DemotedBlocks  int
	EvictedBlocks  int

	// Host-link transfer totals the tier motion paid.
	TransferBytes units.Bytes
	TransferTime  units.Seconds

	TPOTP99 units.Seconds
}

// KVCacheResult is the block-level KV-cache figure: every cache
// configuration run over identical traffic on both caching-sensitive
// scenarios (chat-multiturn's carried contexts, longctx-heavy's shared
// documents), on a fleet whose attention pool is deliberately too small to
// hold the working set — the regime where block sharing, tier sizing, and
// eviction become visible in end-to-end latency.
type KVCacheResult struct {
	Model         string
	Design        string
	Replicas      int
	MaxBatch      int
	Conversations int
	Requests      int
	Cells         []KVCacheCell
}

// KVCache runs the default figure: the DefaultKVCacheConfigs sweep on
// OPT-30B over 56 chat-multiturn conversations and 48 longctx-heavy
// requests (6 shared-document groups), 2 replicas of 4-deep batches.
func KVCache() KVCacheResult {
	return KVCacheSweep(DefaultKVCacheConfigs(), model.OPT30B(), 2, 4, 56, 48, defaultWorkers())
}

// kvcacheSpec realises the figure's constrained fleet: the registry PAPI
// design with its attention pool shrunk to a single HBM-PIM device. The
// full 60-device pool would hold every scenario's working set outright —
// no eviction, no demotion, every configuration identical. One stack
// (~12k OPT-30B tokens) still fits the largest longctx request alone, but
// not a batch of them plus the resident prefix cache, so the tiers
// actually move.
func kvcacheSpec() design.Spec {
	spec := design.PAPI(0)
	spec.Name = "PAPI-1stack"
	spec.Description = "PAPI with a single-device attention pool, for KV-cache pressure studies"
	spec.AttnPIM = design.HBMPIMPool(1)
	return spec
}

// kvcacheScenario resolves a registered scenario, panicking on a name the
// registry no longer knows — a programming error, not a runtime condition.
func kvcacheScenario(name string) workload.Scenario {
	sc, err := workload.ScenarioByName(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: kvcache: %v", err))
	}
	return sc
}

// KVCacheSweep evaluates every cache configuration over one shared pair of
// seeded workloads on a worker pool of the given size (≤ 1 runs serially;
// identical results either way — cells are independent). All cells share
// one hardware design: kv.Options changes admission and the prefill ledger,
// never kernel pricing.
func KVCacheSweep(configs []KVCacheConfig, cfg model.Config,
	replicas, maxBatch, conversations, requests, workers int) KVCacheResult {
	out := KVCacheResult{
		Model:         cfg.Name,
		Design:        kvcacheSpec().Name,
		Replicas:      replicas,
		MaxBatch:      maxBatch,
		Conversations: conversations,
		Requests:      requests,
	}

	// Both traffic patterns are sampled once and shared read-only: every
	// configuration faces byte-identical conversations and requests.
	chat, err := kvcacheScenario(workload.ScenarioChatMultiTurn).Plan(conversations, Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: kvcache chat plan: %v", err))
	}
	longctx, err := kvcacheScenario(workload.ScenarioLongCtxHeavy).Requests(requests, Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: kvcache longctx stream: %v", err))
	}
	// Tag shared retrieved documents: 6 document groups over 60 % of the
	// stream, document lengths in the prompt's own regime.
	longctx = workload.AssignPrefixGroups(longctx, 6,
		workload.LengthDist{Median: 1024, Sigma: 0.4, Min: 256, Max: 2048}, 0.6, Seed)

	type cellKey struct {
		scenario string
		config   KVCacheConfig
	}
	var cells []cellKey
	for _, sc := range []string{workload.ScenarioChatMultiTurn, workload.ScenarioLongCtxHeavy} {
		for _, c := range configs {
			cells = append(cells, cellKey{sc, c})
		}
	}

	out.Cells = parallelMap(cells, workers, func(k cellKey) KVCacheCell {
		kvOpt := k.config.KV
		opt := serving.DefaultOptions(1)
		opt.KV = &kvOpt
		cl, err := cluster.NewFromSpecs([]design.Spec{kvcacheSpec()}, cfg, cluster.Options{
			Replicas: replicas,
			MaxBatch: maxBatch,
			// Least-outstanding keeps placement identical in every cell:
			// the KV-headroom router reads the very footprints the sweep
			// varies, which would entangle cache effects with routing.
			Router:  cluster.LeastOutstanding(),
			Serving: opt,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: kvcache %s/%s: %v", k.scenario, k.config.Label, err))
		}
		var f *cluster.FleetResult
		if k.scenario == workload.ScenarioChatMultiTurn {
			f, err = cl.RunPlan(chat)
		} else {
			f, err = cl.Run(longctx)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: kvcache %s/%s: %v", k.scenario, k.config.Label, err))
		}

		resolved := kvOpt.Resolved()
		cell := KVCacheCell{
			Scenario:    k.scenario,
			Config:      k.config.Label,
			BlockTokens: resolved.BlockTokens,
			ColdFactor:  resolved.ColdFactor,
			Sharing:     kvOpt.Sharing,
			Requests:    f.Completed,
			Tokens:      f.Tokens,
			Makespan:    f.Makespan,
			TPOTP99:     units.Seconds(f.TPOT.P99),
		}
		for _, r := range f.Replicas {
			cell.PrefillTokens += r.PrefillTokens
			cell.ReprefillTokens += r.ReprefillTokens
			if r.KV == nil {
				continue
			}
			cell.SharedTokens += r.KV.SharedTokens
			cell.Lookups += r.KV.Lookups
			cell.Hits += r.KV.Hits
			cell.ReusedBlocks += r.KV.ReusedBlocks
			cell.PromotedBlocks += r.KV.PromotedBlocks
			cell.DemotedBlocks += r.KV.DemotedBlocks
			cell.EvictedBlocks += r.KV.EvictedBlocks
			cell.TransferBytes += r.KV.TransferBytes
			cell.TransferTime += r.KV.TransferTime
		}
		if cell.Lookups > 0 {
			cell.HitRate = float64(cell.Hits) / float64(cell.Lookups)
		}
		return cell
	})
	return out
}

// String renders the sweep as one table per scenario-free grid.
func (r KVCacheResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Block-level KV cache · %s on %s ×%d (batch %d) · %d conversations / %d longctx requests",
			r.Model, r.Design, r.Replicas, r.MaxBatch, r.Conversations, r.Requests),
		"scenario", "config", "hit%", "shared tok", "re-prefill", "prefill",
		"promoted", "demoted", "evicted", "xfer", "TPOT p99", "makespan")
	for _, c := range r.Cells {
		hit := "-"
		if c.Sharing {
			hit = fmt.Sprintf("%.1f%%", 100*c.HitRate)
		}
		tb.AddRow(
			c.Scenario,
			c.Config,
			hit,
			fmt.Sprintf("%d", c.SharedTokens),
			fmt.Sprintf("%d", c.ReprefillTokens),
			fmt.Sprintf("%d", c.PrefillTokens),
			fmt.Sprintf("%d", c.PromotedBlocks),
			fmt.Sprintf("%d", c.DemotedBlocks),
			fmt.Sprintf("%d", c.EvictedBlocks),
			c.TransferTime.String(),
			c.TPOTP99.String(),
			c.Makespan.String())
	}
	var b strings.Builder
	b.WriteString(tb.String())
	return b.String()
}
