// Package llm models the large language models characterized in the paper
// (Table 3) from first principles: parameter counts, architecture shapes,
// and the floating-point and memory-traffic cost of the prompt-processing
// and token-sampling phases of inference, as well as training iterations.
//
// The paper's central characterization facts fall out of this arithmetic:
//
//   - Prompt processing runs over the whole input in parallel, so its cost
//     is dominated by FLOPs (≈ 2·params per input token) — compute bound.
//   - Token sampling generates one token at a time and must stream the full
//     model weights (plus KV cache) from HBM for every step — memory bound,
//     hence the lower, stable power draw of the token phase.
//   - Training does a forward and backward pass (≈ 6·params FLOPs per
//     token) punctuated by gradient synchronization, which produces the
//     paper's per-iteration power swings.
package llm

import (
	"fmt"
	"sort"
)

// Arch is the transformer architecture family (paper §2).
type Arch int

const (
	// Encoder models (e.g. RoBERTa) contextualize the whole input in one
	// bidirectional pass; inference has no token-sampling phase.
	Encoder Arch = iota
	// Decoder models (e.g. GPT, BLOOM, Llama2) generate autoregressively:
	// a prompt phase followed by sequential token sampling.
	Decoder
	// EncoderDecoder models (e.g. Flan-T5) encode the input once, then
	// decode autoregressively.
	EncoderDecoder
)

// String returns the architecture name.
func (a Arch) String() string {
	switch a {
	case Encoder:
		return "encoder"
	case Decoder:
		return "decoder"
	case EncoderDecoder:
		return "encoder-decoder"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// DType is a numeric datatype for model weights (paper §4.2, "Impact of
// datatypes").
type DType int

const (
	FP32 DType = iota
	FP16
	INT8
	// FP8 is the H100-generation datatype the paper flags as a
	// forward-looking trade-off ("the FP8 engine in NVIDIA H100 could
	// further impact these trade-offs", §4.2).
	FP8
)

// Bytes returns the storage size of one element.
func (d DType) Bytes() float64 {
	switch d {
	case FP32:
		return 4
	case FP16:
		return 2
	case INT8, FP8:
		return 1
	}
	return 4
}

// String returns the datatype name.
func (d DType) String() string {
	switch d {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case INT8:
		return "int8"
	case FP8:
		return "fp8"
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// KernelEfficiency returns the fraction of peak math throughput that
// kernels for this datatype typically achieve. FP16 uses highly optimized
// tensor-core kernels; INT8 (bitsandbytes-style) pays for quantize/
// dequantize steps and less-tuned kernels, which the paper observes as
// slower execution despite the smaller footprint.
func (d DType) KernelEfficiency() float64 {
	switch d {
	case FP32:
		return 0.75
	case FP16:
		return 0.95
	case INT8:
		return 0.2
	case FP8:
		// Native transformer-engine support: no dequantization tax.
		return 0.9
	}
	return 0.75
}

// MemAmplification returns the factor by which weight-streaming traffic is
// inflated for this datatype. INT8 (bitsandbytes-style) dequantizes weights
// to half precision on the fly, reading the quantized weights and spilling
// dequantized tiles, so its effective traffic exceeds its storage size —
// this is why the paper finds INT8 *slower* than FP16 despite the smaller
// footprint.
func (d DType) MemAmplification() float64 {
	if d == INT8 {
		return 2.2
	}
	return 1
}

// Model describes one LLM from the paper's workload table.
type Model struct {
	Name   string
	Arch   Arch
	Params int64 // total parameter count

	// Architecture shape, used for attention and KV-cache arithmetic.
	Layers int // transformer blocks (encoder+decoder blocks for enc-dec)
	Hidden int // model (embedding) dimension
	Heads  int // attention heads
	// KVHeads is the number of key/value heads (grouped-query attention).
	// Zero means full multi-head attention (KVHeads == Heads).
	KVHeads int

	// InferenceGPUs is the number of A100-80GB GPUs the paper uses to serve
	// the model (Table 3), i.e. the tensor-parallel degree at FP16.
	InferenceGPUs int

	// InferenceOnly marks models the paper characterizes only for inference
	// (Llama2, OPT, BLOOM; Table 3 asterisks).
	InferenceOnly bool
}

// kvHeads returns the effective number of KV heads.
func (m Model) kvHeads() int {
	if m.KVHeads > 0 {
		return m.KVHeads
	}
	return m.Heads
}

// Validate reports whether the model description is internally consistent.
func (m Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("llm: model has no name")
	case m.Params <= 0:
		return fmt.Errorf("llm: %s: non-positive params", m.Name)
	case m.Layers <= 0 || m.Hidden <= 0 || m.Heads <= 0:
		return fmt.Errorf("llm: %s: incomplete architecture shape", m.Name)
	case m.Hidden%m.Heads != 0:
		return fmt.Errorf("llm: %s: hidden %d not divisible by heads %d", m.Name, m.Hidden, m.Heads)
	case m.InferenceGPUs <= 0:
		return fmt.Errorf("llm: %s: non-positive inference GPU count", m.Name)
	case m.kvHeads() > m.Heads || m.Heads%m.kvHeads() != 0:
		return fmt.Errorf("llm: %s: invalid KV head count %d", m.Name, m.KVHeads)
	}
	return nil
}

// WeightBytes returns the size of the model weights in bytes at the given
// datatype.
func (m Model) WeightBytes(dt DType) float64 {
	return float64(m.Params) * dt.Bytes()
}

// KVBytesPerToken returns the KV-cache growth per generated or cached token
// per sequence, in bytes: two tensors (K and V) of kv-head width per layer.
func (m Model) KVBytesPerToken(dt DType) float64 {
	kvWidth := float64(m.Hidden) * float64(m.kvHeads()) / float64(m.Heads)
	return 2 * float64(m.Layers) * kvWidth * dt.Bytes()
}

// IterCost is a model's inference cost at one datatype. It holds the
// model constants the cost formulas multiply by, folded once: a
// continuous-batching scheduler prices every sequence of every iteration
// through it, and the slot model's plan every request, and so neither
// copies the Model nor rebuilds the constants per call. Each folded
// constant is a prefix of its formula's left-to-right evaluation, so
// folding moves no bits.
type IterCost struct {
	twoParams    float64 // 2·Params: linear FLOPs per token
	twoLayers    float64 // 2·Layers: prompt attention
	fourLayers   float64 // 4·Layers: token-step attention
	fourLH       float64 // 4·Layers·Hidden: attention FLOPs per (query, key) pair at full KV width
	hidden       float64 // model dimension
	kvHeads      float64 // effective KV heads
	heads        float64 // attention heads
	actBytes     float64 // 12·Layers·Hidden·Bytes: activation traffic per token
	kvBytesPerT  float64 // KVBytesPerToken
	weightStream float64 // WeightBytes·MemAmplification: weight traffic per pass
}

// IterCost folds the model's cost constants at datatype dt.
func (m Model) IterCost(dt DType) IterCost {
	return IterCost{
		twoParams:    2 * float64(m.Params),
		twoLayers:    2 * float64(m.Layers),
		fourLayers:   4 * float64(m.Layers),
		fourLH:       4 * float64(m.Layers) * float64(m.Hidden),
		hidden:       float64(m.Hidden),
		kvHeads:      float64(m.kvHeads()),
		heads:        float64(m.Heads),
		actBytes:     12 * float64(m.Layers) * float64(m.Hidden) * dt.Bytes(),
		kvBytesPerT:  m.KVBytesPerToken(dt),
		weightStream: m.WeightBytes(dt) * dt.MemAmplification(),
	}
}

// PromptFLOPs returns the total floating-point work of processing a prompt
// of inputLen tokens at the given batch size: the standard 2·params
// per-token matmul cost plus the quadratic attention-score term
// (2·2·layers·inputLen²·hidden per sequence, causal-masked halving folded
// into the constant).
func (c *IterCost) PromptFLOPs(batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	linear := c.twoParams * tokens
	attn := c.twoLayers * float64(inputLen) * c.hidden * tokens
	return linear + attn
}

// TokenStepFLOPs returns the floating-point work of sampling one token for
// each sequence in the batch, with kvLen tokens already in the KV cache:
// 2·params per token plus attention against the cache.
func (c *IterCost) TokenStepFLOPs(batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	b := float64(batch)
	linear := c.twoParams * b
	attn := c.fourLayers * float64(kvLen) * c.hidden * b * c.kvHeads / c.heads
	return linear + attn
}

// PromptBytes returns the HBM traffic of the prompt phase: weights are read
// once (they are amortized across all input tokens) plus activation
// traffic proportional to tokens.
func (c *IterCost) PromptBytes(batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	activations := c.actBytes * tokens
	return c.weightStream + activations
}

// TokenStepBytes returns the HBM traffic of one token-sampling step: the
// entire weight matrix is streamed once per step (this is what makes the
// token phase memory-bandwidth bound) plus the KV cache read for every
// sequence in the batch.
func (c *IterCost) TokenStepBytes(batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	kv := c.kvBytesPerT * float64(kvLen) * float64(batch)
	return c.weightStream + kv
}

// PrefillChunkFLOPs returns the floating-point work of prefilling a chunk
// of chunk prompt tokens for one sequence whose KV cache already holds ctx
// tokens (chunked prefill, as continuous-batching schedulers run it):
// 2·params per chunk token plus attention of each chunk token against the
// prior context and the causally-preceding chunk tokens. At ctx == 0 with a
// full-prompt chunk it reproduces PromptFLOPs exactly (modulo the KV-head
// fraction, which PromptFLOPs folds into its constant), so chunking a
// prompt never changes its total attention FLOPs.
func (c *IterCost) PrefillChunkFLOPs(chunk, ctx int) float64 {
	if chunk <= 0 {
		return 0
	}
	n, k := float64(chunk), float64(ctx)
	linear := c.twoParams * n
	pairs := n*k + n*n/2
	attn := c.fourLH * pairs * c.kvHeads / c.heads
	return linear + attn
}

// PrefillChunkBytes returns the HBM traffic of one prefill chunk beyond the
// per-iteration weight stream (which a continuous-batching scheduler pays
// once per iteration, not once per sequence): activation traffic for the
// chunk tokens, the KV write for the chunk, and one read of the prior
// context's KV cache.
func (c *IterCost) PrefillChunkBytes(chunk, ctx int) float64 {
	if chunk <= 0 {
		return 0
	}
	n := float64(chunk)
	activations := c.actBytes * n
	kv := c.kvBytesPerT * (n + float64(ctx))
	return activations + kv
}

// DecodeSpanFLOPs returns the floating-point work of decoding steps
// consecutive tokens for one sequence whose KV cache holds kvStart tokens
// at the first step and grows by one per step. It is the closed form of
// summing TokenStepFLOPs(1, kvStart+i) for i in [0, steps); schedulers that
// aggregate several identical decode steps into one simulated iteration use
// it to keep the exact per-step attention cost.
func (c *IterCost) DecodeSpanFLOPs(steps, kvStart int) float64 {
	if steps <= 0 {
		return 0
	}
	s, k := float64(steps), float64(kvStart)
	linear := c.twoParams * s
	pairs := s*k + s*(s-1)/2
	attn := c.fourLH * pairs * c.kvHeads / c.heads
	return linear + attn
}

// DecodeSpanBytes returns the HBM traffic of the same decode span beyond
// the per-iteration weight stream: the KV cache read per step (growing by
// one token per step), the KV write of each new token, and the single-token
// activation traffic per step.
func (c *IterCost) DecodeSpanBytes(steps, kvStart int) float64 {
	if steps <= 0 {
		return 0
	}
	s, k := float64(steps), float64(kvStart)
	activations := c.actBytes * s
	kvRead := c.kvBytesPerT * (s*k + s*(s-1)/2)
	kvWrite := c.kvBytesPerT * s
	return activations + kvRead + kvWrite
}

// TrainStepFLOPs returns the floating-point work of one training iteration
// on tokens = batch·seqLen: forward (2·params) plus backward (4·params) per
// token, plus the attention terms for both directions.
func (m Model) TrainStepFLOPs(batch, seqLen int) float64 {
	if batch <= 0 || seqLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(seqLen)
	linear := 6 * float64(m.Params) * tokens
	attn := 6 * float64(m.Layers) * float64(seqLen) * float64(m.Hidden) * tokens
	return linear + attn
}

// Catalog returns the models characterized in the paper (Table 3), in a
// stable order. Architecture shapes follow the published model cards.
func Catalog() []Model {
	models := []Model{
		{Name: "RoBERTa-355M", Arch: Encoder, Params: 355e6, Layers: 24, Hidden: 1024, Heads: 16, InferenceGPUs: 1},
		{Name: "Flan-T5-XXL-11B", Arch: EncoderDecoder, Params: 11e9, Layers: 48, Hidden: 4096, Heads: 64, InferenceGPUs: 1},
		{Name: "Llama2-13B", Arch: Decoder, Params: 13e9, Layers: 40, Hidden: 5120, Heads: 40, InferenceGPUs: 1, InferenceOnly: true},
		{Name: "GPT-NeoX-20B", Arch: Decoder, Params: 20e9, Layers: 44, Hidden: 6144, Heads: 64, InferenceGPUs: 2},
		{Name: "OPT-30B", Arch: Decoder, Params: 30e9, Layers: 48, Hidden: 7168, Heads: 56, InferenceGPUs: 4, InferenceOnly: true},
		{Name: "Llama2-70B", Arch: Decoder, Params: 70e9, Layers: 80, Hidden: 8192, Heads: 64, KVHeads: 8, InferenceGPUs: 4, InferenceOnly: true},
		{Name: "BLOOM-176B", Arch: Decoder, Params: 176e9, Layers: 70, Hidden: 14336, Heads: 112, InferenceGPUs: 8, InferenceOnly: true},
	}
	return models
}

// ByName returns the catalog model with the given name.
func ByName(name string) (Model, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	names := make([]string, 0, 8)
	for _, m := range Catalog() {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return Model{}, fmt.Errorf("llm: unknown model %q (have %v)", name, names)
}

// MustByName is ByName but panics on error; for use in examples and tests.
func MustByName(name string) Model {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// InferenceModels returns the catalog subset the paper profiles for
// generative inference timeseries (Figure 6): Flan-T5, GPT-NeoX, OPT,
// Llama2-70B, BLOOM.
func InferenceModels() []Model {
	var out []Model
	for _, m := range Catalog() {
		switch m.Name {
		case "Flan-T5-XXL-11B", "GPT-NeoX-20B", "OPT-30B", "Llama2-70B", "BLOOM-176B":
			out = append(out, m)
		}
	}
	return out
}
