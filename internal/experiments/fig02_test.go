package experiments

import (
	"math"
	"testing"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/model"
)

// a100 is the one-device node Fig. 2 places its kernels on.
func a100() *gpu.Node { return gpu.NewNode(gpu.A100(), 1) }

func TestFig2Ridge(t *testing.T) {
	if r := Fig2(); math.Abs(r.RidgeAI-161.24) > 0.1 {
		t.Fatalf("Fig. 2 ridge = %.2f, want ≈161.2", r.RidgeAI)
	}
}

func TestFig2Classify(t *testing.T) {
	n := a100()
	if p := fig2Point(n, Config{}, model.Kernel{Flops: 100, WeightBytes: 1}); p.Bound != MemoryBound {
		t.Fatalf("AI=%.0f should be memory-bound on A100", p.AI)
	}
	if p := fig2Point(n, Config{}, model.Kernel{Flops: 200, WeightBytes: 1}); p.Bound != ComputeBound {
		t.Fatalf("AI=%.0f should be compute-bound on A100", p.AI)
	}
	if MemoryBound.String() != "memory-bound" || ComputeBound.String() != "compute-bound" {
		t.Fatal("boundedness names wrong")
	}
}

func TestFig2PureComputeKernel(t *testing.T) {
	p := fig2Point(a100(), Config{}, model.Kernel{Kind: model.KindFFN, Flops: 100})
	if !math.IsInf(p.AI, 1) || p.Bound != ComputeBound {
		t.Fatalf("pure-compute kernel: AI=%v bound=%v", p.AI, p.Bound)
	}
}

func TestFig2aFCTransition(t *testing.T) {
	// Fig. 2(a): OPT-30B, speculation length 8. FC is memory-bound at batch
	// sizes 4–16 and compute-bound at ≥ 32.
	cfg := model.OPT30B()
	n := a100()
	spec := 8
	for _, batch := range []int{4, 8, 16} {
		p := fig2Point(n, Config{Batch: batch, Spec: spec}, cfg.FFNKernel(batch*spec))
		if p.Bound != MemoryBound {
			t.Errorf("batch %d, spec 8: FC classified %v, want memory-bound (AI %.1f)", batch, p.Bound, p.AI)
		}
	}
	for _, batch := range []int{32, 64, 128} {
		p := fig2Point(n, Config{Batch: batch, Spec: spec}, cfg.FFNKernel(batch*spec))
		if p.Bound != ComputeBound {
			t.Errorf("batch %d, spec 8: FC classified %v, want compute-bound (AI %.1f)", batch, p.Bound, p.AI)
		}
	}
}

func TestFig2aAttentionAlwaysMemoryBound(t *testing.T) {
	// Fig. 2: the attention kernel stays memory-bound at every batch size
	// and speculation length.
	cfg := model.OPT30B()
	n := a100()
	for _, batch := range []int{4, 32, 128} {
		for _, spec := range []int{2, 4, 8} {
			kv := make([]int, batch)
			for i := range kv {
				kv[i] = 1024
			}
			p := fig2Point(n, Config{Batch: batch, Spec: spec}, cfg.AttentionKernel(spec, kv))
			if p.Bound != MemoryBound {
				t.Errorf("batch %d spec %d: attention classified %v (AI %.1f)", batch, spec, p.Bound, p.AI)
			}
		}
	}
}

func TestFig2bSpeculationSweep(t *testing.T) {
	// Fig. 2(b): batch 32, speculation 2–8. FC becomes compute-bound when
	// the speculation length exceeds 6.
	cfg := model.OPT30B()
	n := a100()
	batch := 32
	low := fig2Point(n, Config{Batch: batch, Spec: 2}, cfg.FFNKernel(batch*2))
	if low.Bound != MemoryBound {
		t.Errorf("batch 32 spec 2: FC %v, want memory-bound", low.Bound)
	}
	high := fig2Point(n, Config{Batch: batch, Spec: 8}, cfg.FFNKernel(batch*8))
	if high.Bound != ComputeBound {
		t.Errorf("batch 32 spec 8: FC %v, want compute-bound", high.Bound)
	}
}

func TestShortcoming2AIGap(t *testing.T) {
	// §3.3 Shortcoming 2: at batch 4, spec 8, FC's AI (~31.7) is ≈4.5× the
	// attention kernel's (~7.0).
	cfg := model.OPT30B()
	n := a100()
	c := Config{Batch: 4, Spec: 8}
	fc := fig2Point(n, c, cfg.FFNKernel(4*8))
	at := fig2Point(n, c, cfg.AttentionKernel(8, []int{1024, 1024, 1024, 1024}))
	ratio := fc.AI / at.AI
	if ratio < 3.5 || ratio > 6 {
		t.Fatalf("FC/attention AI ratio = %.2f (FC %.1f, attn %.1f), want ≈4.5", ratio, fc.AI, at.AI)
	}
}
