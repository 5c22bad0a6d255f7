// Package model describes transformer LLMs at the granularity the simulator
// needs: per-layer kernel shapes (QKV generation, multi-head attention,
// projection, feed-forward — Fig. 1(a)), FLOP and byte counts as functions of
// decoding parallelism, weight and KV-cache footprints, and the arithmetic
// intensity formulas of §5.1 (Eq. 1 and the RLP×TLP estimator of Eq. 2).
//
// Counting conventions (matching the paper's roofline analysis):
//   - a multiply-accumulate is 2 FLOPs;
//   - FP16 everywhere: 2 bytes per parameter/activation element;
//   - hence an FC kernel over weights of W bytes with n tokens in flight
//     performs exactly n×W FLOPs (n × W/2 params × 2 FLOPs/param).
package model

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// BytesPerElement is the FP16 data size used throughout the evaluation.
const BytesPerElement = 2

// Config describes one transformer decoder-only LLM.
type Config struct {
	Name        string
	Hidden      int // h, the hidden dimension
	Layers      int
	Heads       int
	FFNDim      int // intermediate (feed-forward) dimension
	FFNMatrices int // 2 for GELU MLPs (up+down), 3 for SwiGLU (gate+up+down)
	VocabSize   int
	MaxSeqLen   int
}

// Published model configurations used in the evaluation (§7.1 and Fig. 2).

// OPT30B returns the OPT-30B configuration (Fig. 2's roofline study).
func OPT30B() Config {
	return Config{Name: "OPT-30B", Hidden: 7168, Layers: 48, Heads: 56,
		FFNDim: 28672, FFNMatrices: 2, VocabSize: 50272, MaxSeqLen: 2048}
}

// LLaMA65B returns the LLaMA-65B configuration (SwiGLU FFN).
func LLaMA65B() Config {
	return Config{Name: "LLaMA-65B", Hidden: 8192, Layers: 80, Heads: 64,
		FFNDim: 22016, FFNMatrices: 3, VocabSize: 32000, MaxSeqLen: 2048}
}

// GPT3_66B returns the GPT-3 66B configuration (h = 9216, per §5.1's Fig. 6).
func GPT3_66B() Config {
	return Config{Name: "GPT-3 66B", Hidden: 9216, Layers: 64, Heads: 72,
		FFNDim: 36864, FFNMatrices: 2, VocabSize: 50257, MaxSeqLen: 2048}
}

// GPT3_175B returns the GPT-3 175B configuration (h = 12288, §5.1).
func GPT3_175B() Config {
	return Config{Name: "GPT-3 175B", Hidden: 12288, Layers: 96, Heads: 96,
		FFNDim: 49152, FFNMatrices: 2, VocabSize: 50257, MaxSeqLen: 2048}
}

// Draft models for speculative decoding (§2.2.2: "a small draft model").

// OPT125M returns a small draft model for the GPT/OPT family.
func OPT125M() Config {
	return Config{Name: "OPT-125M", Hidden: 768, Layers: 12, Heads: 12,
		FFNDim: 3072, FFNMatrices: 2, VocabSize: 50272, MaxSeqLen: 2048}
}

// LLaMA7B returns the draft model for the LLaMA family.
func LLaMA7B() Config {
	return Config{Name: "LLaMA-7B", Hidden: 4096, Layers: 32, Heads: 32,
		FFNDim: 11008, FFNMatrices: 3, VocabSize: 32000, MaxSeqLen: 2048}
}

// All returns the four evaluation models.
func All() []Config {
	return []Config{OPT30B(), LLaMA65B(), GPT3_66B(), GPT3_175B()}
}

// ByName looks a configuration up by its display name.
func ByName(name string) (Config, error) {
	for _, c := range append(All(), OPT125M(), LLaMA7B()) {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Hidden <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.FFNDim <= 0 {
		return fmt.Errorf("model: %s has non-positive dimensions", c.Name)
	}
	if c.Hidden%c.Heads != 0 {
		return fmt.Errorf("model: %s hidden %d not divisible by %d heads", c.Name, c.Hidden, c.Heads)
	}
	if c.FFNMatrices != 2 && c.FFNMatrices != 3 {
		return fmt.Errorf("model: %s FFNMatrices = %d, want 2 or 3", c.Name, c.FFNMatrices)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// Parameter and footprint accounting ---------------------------------------

// FCParamsPerLayer returns the FC parameter count of one decoder layer:
// QKV (3h²) + projection (h²) + FFN matrices.
func (c Config) FCParamsPerLayer() int64 {
	h := int64(c.Hidden)
	return 4*h*h + int64(c.FFNMatrices)*h*int64(c.FFNDim)
}

// Params returns the total parameter count (decoder layers + embedding).
func (c Config) Params() int64 {
	return int64(c.Layers)*c.FCParamsPerLayer() + int64(c.VocabSize)*int64(c.Hidden)
}

// FCWeightBytesPerLayer returns the bytes of FC weights streamed per layer.
func (c Config) FCWeightBytesPerLayer() units.Bytes {
	return units.Bytes(c.FCParamsPerLayer() * BytesPerElement)
}

// WeightBytes returns the full model footprint in FP16.
func (c Config) WeightBytes() units.Bytes {
	return units.Bytes(c.Params() * BytesPerElement)
}

// KVBytesPerTokenPerLayer returns the KV-cache growth per generated token per
// layer (K and V vectors, FP16).
func (c Config) KVBytesPerTokenPerLayer() units.Bytes {
	return units.Bytes(2 * c.Hidden * BytesPerElement)
}

// KVBytes returns the KV-cache footprint of one request at the given
// sequence length, across all layers.
func (c Config) KVBytes(seqLen int) units.Bytes {
	return units.Bytes(float64(seqLen)) * c.KVBytesPerTokenPerLayer() * units.Bytes(c.Layers)
}

// Kernel shapes --------------------------------------------------------------

// KernelKind identifies the four decoder kernels of Fig. 1(a).
type KernelKind int

// Decoder kernel kinds.
const (
	KindQKV KernelKind = iota
	KindAttention
	KindProjection
	KindFFN
)

// String names the kernel kind.
func (k KernelKind) String() string {
	switch k {
	case KindQKV:
		return "qkv"
	case KindAttention:
		return "attention"
	case KindProjection:
		return "projection"
	case KindFFN:
		return "ffn"
	}
	return fmt.Sprintf("KernelKind(%d)", int(k))
}

// IsFC reports whether the kernel is a fully-connected (weight-streaming)
// kernel — the kind PAPI schedules dynamically.
func (k KernelKind) IsFC() bool { return k != KindAttention }

// Kernel is one decoder kernel's shape for one layer of one decoding
// iteration.
type Kernel struct {
	Kind  KernelKind
	Flops units.FLOPs
	// WeightBytes is the unique weight data streamed (FC kernels only).
	WeightBytes units.Bytes
	// KVBytes is the unique KV-cache data streamed (attention only).
	KVBytes units.Bytes
	// ActivationBytes is input+output activation traffic, which crosses
	// interconnects when the kernel's producer/consumer live elsewhere.
	ActivationBytes units.Bytes
}

// UniqueBytes returns the kernel's streamed data volume (the denominator of
// its arithmetic intensity, excluding activations for the large-h regime).
func (k Kernel) UniqueBytes() units.Bytes { return k.WeightBytes + k.KVBytes }

// AI returns the kernel's arithmetic intensity in FLOP/byte over all traffic.
func (k Kernel) AI() float64 {
	return units.Intensity(k.Flops, k.WeightBytes+k.KVBytes+k.ActivationBytes)
}

// QKVKernel returns the QKV-generation kernel with n tokens in flight
// (n = RLP×TLP).
func (c Config) QKVKernel(n int) Kernel {
	h := float64(c.Hidden)
	w := 3 * h * h * BytesPerElement
	return Kernel{
		Kind:            KindQKV,
		Flops:           units.FLOPs(float64(n) * w), // n × W bytes × 1 FLOP/B
		WeightBytes:     units.Bytes(w),
		ActivationBytes: units.Bytes(float64(n) * (h + 3*h) * BytesPerElement),
	}
}

// ProjectionKernel returns the attention-output projection kernel.
func (c Config) ProjectionKernel(n int) Kernel {
	h := float64(c.Hidden)
	w := h * h * BytesPerElement
	return Kernel{
		Kind:            KindProjection,
		Flops:           units.FLOPs(float64(n) * w),
		WeightBytes:     units.Bytes(w),
		ActivationBytes: units.Bytes(float64(n) * 2 * h * BytesPerElement),
	}
}

// FFNKernel returns the feed-forward kernel (both/all matrices).
func (c Config) FFNKernel(n int) Kernel {
	h, f := float64(c.Hidden), float64(c.FFNDim)
	w := float64(c.FFNMatrices) * h * f * BytesPerElement
	return Kernel{
		Kind:            KindFFN,
		Flops:           units.FLOPs(float64(n) * w),
		WeightBytes:     units.Bytes(w),
		ActivationBytes: units.Bytes(float64(n) * 2 * h * BytesPerElement),
	}
}

// AttentionKernel returns the multi-head attention kernel for a batch whose
// requests have the given KV lengths, each decoding tlp speculative tokens.
//
// Per request: QK^T over an L×h cache (2·tlp·L·h FLOPs) plus PV (same), with
// the K and V caches (2·L·h elements) streamed once and reused across the
// tlp speculative tokens — batching provides no reuse here (§3.1), which is
// why attention AI ≈ TLP regardless of batch size.
func (c Config) AttentionKernel(tlp int, kvLens []int) Kernel {
	h := float64(c.Hidden)
	var flops, kv, act float64
	for _, L := range kvLens {
		l := float64(L)
		flops += 4 * float64(tlp) * l * h
		kv += 4 * l * h // 2Lh elements × 2 bytes
		act += float64(tlp) * 4 * h * BytesPerElement
	}
	return Kernel{
		Kind:            KindAttention,
		Flops:           units.FLOPs(flops),
		KVBytes:         units.Bytes(kv),
		ActivationBytes: units.Bytes(act),
	}
}

// LayerKernels returns the four kernels of one decoder layer for a decoding
// iteration with rlp requests (KV lengths given) and tlp speculative tokens.
func (c Config) LayerKernels(tlp int, kvLens []int) []Kernel {
	n := len(kvLens) * tlp
	return []Kernel{
		c.QKVKernel(n),
		c.AttentionKernel(tlp, kvLens),
		c.ProjectionKernel(n),
		c.FFNKernel(n),
	}
}

// FCIterationKernel aggregates all FC work of one full decoding iteration
// (all layers) into a single kernel, the granularity at which the PAPI
// scheduler places FC work.
func (c Config) FCIterationKernel(n int) Kernel {
	w := float64(c.FCWeightBytesPerLayer()) * float64(c.Layers)
	h := float64(c.Hidden)
	return Kernel{
		Kind:            KindFFN,
		Flops:           units.FLOPs(float64(n) * w),
		WeightBytes:     units.Bytes(w),
		ActivationBytes: units.Bytes(float64(n) * 2 * h * BytesPerElement * float64(c.Layers)),
	}
}

// Prefill is a batch's prefill-phase work summed one prompt at a time by
// Add: its input tokens and its causal attention FLOPs (~L²h per prompt).
// The zero value is an empty batch.
type Prefill struct {
	Tokens    float64
	AttnFlops float64
}

// Add adds one prompt of inputLen tokens under model c.
func (p *Prefill) Add(c *Config, inputLen int) {
	l := float64(inputLen)
	p.Tokens += l
	p.AttnFlops += 2 * l * l * float64(c.Hidden) * float64(c.Layers)
}

// PrefillWork returns the aggregate prefill-phase kernel of a batch: FC
// over every input token plus its causal attention.
func (c Config) PrefillWork(p Prefill) Kernel {
	w := float64(c.FCWeightBytesPerLayer()) * float64(c.Layers)
	return Kernel{
		Kind:        KindQKV,
		Flops:       units.FLOPs(p.Tokens*w + p.AttnFlops),
		WeightBytes: units.Bytes(w),
	}
}

// Arithmetic intensity (§5.1) ------------------------------------------------

// ExactFCAI evaluates Eq. (1): the measured arithmetic intensity of an h×h FC
// kernel with n = RLP×TLP tokens in flight,
//
//	AI = (n·h²·2) / ((2·n·h + h²)·2).
func ExactFCAI(n, h int) float64 {
	nf, hf := float64(n), float64(h)
	return (nf * hf * hf * 2) / ((2*nf*hf + hf*hf) * 2)
}

// EstimatedAI evaluates Eq. (2): the scheduler's RLP×TLP estimator.
func EstimatedAI(rlp, tlp int) float64 { return float64(rlp) * float64(tlp) }
