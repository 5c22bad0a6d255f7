package model

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

func TestParameterCounts(t *testing.T) {
	// Each configuration must land near its nominal parameter count.
	cases := []struct {
		cfg  Config
		want float64 // billions
		tol  float64
	}{
		{OPT30B(), 30, 0.05},
		{LLaMA65B(), 65, 0.05},
		{GPT3_66B(), 66, 0.05},
		{GPT3_175B(), 175, 0.05},
		{LLaMA7B(), 6.7, 0.08},
		{OPT125M(), 0.125, 0.3},
	}
	for _, c := range cases {
		got := float64(c.cfg.Params()) / 1e9
		if math.Abs(got-c.want)/c.want > c.tol {
			t.Errorf("%s params = %.2fB, want ≈%.1fB", c.cfg.Name, got, c.want)
		}
	}
}

func TestGPT175BWeightFootprint(t *testing.T) {
	// §7.1: GPT-3 175B requires 350 GB of memory in FP16.
	gb := float64(GPT3_175B().WeightBytes()) / 1e9
	if math.Abs(gb-350) > 10 {
		t.Fatalf("GPT-3 175B weights = %.0f GB, want ≈350", gb)
	}
}

func TestValidateAll(t *testing.T) {
	for _, c := range append(All(), OPT125M(), LLaMA7B()) {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateFailures(t *testing.T) {
	c := LLaMA65B()
	c.Hidden = 0
	if err := c.Validate(); err == nil {
		t.Error("zero hidden should fail")
	}
	c = LLaMA65B()
	c.Heads = 7 // 8192 % 7 != 0
	if err := c.Validate(); err == nil {
		t.Error("indivisible heads should fail")
	}
	c = LLaMA65B()
	c.FFNMatrices = 4
	if err := c.Validate(); err == nil {
		t.Error("FFNMatrices=4 should fail")
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("GPT-3 175B")
	if err != nil || c.Hidden != 12288 {
		t.Fatalf("ByName = %+v, %v", c, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestKVFootprint(t *testing.T) {
	// §3.2(b): a GPT-3 175B request with input+output 2048 each (seq 4096)
	// holds 2 × 4096 × 12288 × 2 B × 96 layers ≈ 19.3 GB of KV cache.
	c := GPT3_175B()
	got := float64(c.KVBytes(4096)) / 1e9
	want := 2.0 * 4096 * 12288 * 2 * 96 / 1e9
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("KV bytes = %.2f GB, want %.2f", got, want)
	}
}

func TestFCFlopsEqualNTimesWeightBytes(t *testing.T) {
	// The package's counting convention: FC FLOPs = n × weight bytes.
	c := GPT3_66B()
	for _, n := range []int{1, 4, 16, 256} {
		k := c.FCIterationKernel(n)
		if math.Abs(float64(k.Flops)-float64(n)*float64(k.WeightBytes)) > 1 {
			t.Fatalf("n=%d: flops %v != n×weights %v", n, k.Flops, units.FLOPs(float64(n)*float64(k.WeightBytes)))
		}
	}
}

func TestLayerKernelsSumToIteration(t *testing.T) {
	c := LLaMA65B()
	n := 16
	var fcW units.Bytes
	for _, k := range []Kernel{c.QKVKernel(n), c.ProjectionKernel(n), c.FFNKernel(n)} {
		fcW += k.WeightBytes
	}
	if fcW != c.FCWeightBytesPerLayer() {
		t.Fatalf("layer FC weights %v != per-layer total %v", fcW, c.FCWeightBytesPerLayer())
	}
	iter := c.FCIterationKernel(n)
	if got, want := float64(iter.WeightBytes), float64(fcW)*float64(c.Layers); math.Abs(got-want) > 1 {
		t.Fatalf("iteration weights %v != layers × per-layer %v", iter.WeightBytes, want)
	}
}

func TestAttentionAIIndependentOfBatch(t *testing.T) {
	// §3.1: batching gives attention no data reuse — its AI depends only on
	// TLP (plus lower-order softmax terms), not on batch size.
	c := OPT30B()
	tlp := 8
	small := c.AttentionKernel(tlp, []int{512, 512})
	big := c.AttentionKernel(tlp, []int{512, 512, 512, 512, 512, 512, 512, 512})
	aiSmall := units.Intensity(small.Flops, small.KVBytes)
	aiBig := units.Intensity(big.Flops, big.KVBytes)
	if math.Abs(aiSmall-aiBig) > 1e-9 {
		t.Fatalf("attention AI changed with batch: %v vs %v", aiSmall, aiBig)
	}
	if math.Abs(aiSmall-float64(tlp)) > 1e-9 {
		t.Fatalf("attention AI = %v, want TLP = %d", aiSmall, tlp)
	}
}

func TestFCAIGrowsWithBatchAndTLP(t *testing.T) {
	// §3.1: FC arithmetic intensity grows with both RLP and TLP.
	c := OPT30B()
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		k := c.FFNKernel(n)
		ai := k.AI()
		if ai <= prev {
			t.Fatalf("FC AI not increasing at n=%d: %v <= %v", n, ai, prev)
		}
		prev = ai
	}
}

// Property: AI is flops over all traffic, and +Inf for a pure-compute kernel
// (Fig. 2 plots kernels at this intensity).
func TestKernelAIProperty(t *testing.T) {
	cfg := GPT3_66B()
	f := func(nRaw uint8) bool {
		k := cfg.QKVKernel(int(nRaw)%128 + 1)
		want := float64(k.Flops) / float64(k.WeightBytes+k.ActivationBytes)
		return math.Abs(k.AI()-want) < 1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if ai := (Kernel{Kind: KindFFN, Flops: 100}).AI(); !math.IsInf(ai, 1) {
		t.Fatalf("pure-compute kernel AI = %v, want +Inf", ai)
	}
}

func TestExactAIMatchesEstimateForLargeH(t *testing.T) {
	// §5.1: for large h, AI ≈ RLP×TLP. At h=12288 (GPT-3 175B) the estimate
	// must be within 5 % up to n = 128.
	h := GPT3_175B().Hidden
	for _, n := range []int{1, 8, 32, 128} {
		exact := ExactFCAI(n, h)
		est := EstimatedAI(n, 1)
		relErr := math.Abs(exact-est) / est
		if relErr > 0.05 {
			t.Errorf("n=%d: exact %v vs estimate %v (err %.3f)", n, exact, est, relErr)
		}
		if est < exact {
			// Fig. 6: the estimate slightly exceeds the measurement.
			continue
		}
	}
}

func TestEstimateOvershootsAtHighParallelism(t *testing.T) {
	// Fig. 6: at very large RLP (128 × TLP 8 = 1024) the estimated AI is
	// visibly larger than the measured value.
	h := GPT3_66B().Hidden
	exact := ExactFCAI(128*8, h)
	est := EstimatedAI(128, 8)
	if est <= exact {
		t.Fatalf("estimate %v should exceed exact %v at high parallelism", est, exact)
	}
	if (est-exact)/est < 0.05 {
		t.Fatalf("overshoot should be noticeable at n=1024, got exact=%v est=%v", exact, est)
	}
}

func TestPrefillWork(t *testing.T) {
	c := LLaMA65B()
	var p Prefill
	p.Add(&c, 128)
	p.Add(&c, 128)
	k := c.PrefillWork(p)
	// FC part: 256 tokens × per-layer weights × layers (1 FLOP/B).
	fcFlops := 256 * float64(c.FCWeightBytesPerLayer()) * float64(c.Layers)
	if float64(k.Flops) <= fcFlops {
		t.Fatalf("prefill flops %v should exceed FC-only %v (attention term)", k.Flops, fcFlops)
	}
	// Causal attention adds 2·L²·h per layer per prompt; every term is an
	// integer far below 2⁵³, so the running sum is exact.
	attn := 2 * 128 * 128 * float64(c.Hidden) * float64(c.Layers)
	if want := units.FLOPs(fcFlops + 2*attn); k.Flops != want {
		t.Fatalf("prefill flops = %v, want %v", k.Flops, want)
	}
	if k.WeightBytes != units.Bytes(float64(c.FCWeightBytesPerLayer())*float64(c.Layers)) {
		t.Fatalf("prefill weights = %v", k.WeightBytes)
	}
	empty := c.PrefillWork(Prefill{})
	if empty.Flops != 0 {
		t.Fatalf("empty prefill flops = %v", empty.Flops)
	}
}

func TestKernelKindString(t *testing.T) {
	if KindQKV.String() != "qkv" || KindAttention.String() != "attention" ||
		KindProjection.String() != "projection" || KindFFN.String() != "ffn" {
		t.Fatal("kernel kind names wrong")
	}
	if KernelKind(9).String() != "KernelKind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

// Property: Eq. (1) is monotone increasing in n and bounded above by the
// Eq. (2) estimate (weights always add bytes beyond the activations).
func TestExactAIProperty(t *testing.T) {
	f := func(nRaw uint8, hSel uint8) bool {
		n := int(nRaw)%256 + 1
		hs := []int{4096, 7168, 8192, 9216, 12288}
		h := hs[int(hSel)%len(hs)]
		exact := ExactFCAI(n, h)
		if exact <= 0 || exact > float64(n) {
			return false
		}
		return ExactFCAI(n+1, h) > exact
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: kernel FLOPs and bytes scale linearly with token count for FC
// kernels.
func TestFCKernelLinearity(t *testing.T) {
	c := GPT3_66B()
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		k1 := c.FFNKernel(n)
		k2 := c.FFNKernel(2 * n)
		return math.Abs(float64(k2.Flops)-2*float64(k1.Flops)) < 1 &&
			k1.WeightBytes == k2.WeightBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
