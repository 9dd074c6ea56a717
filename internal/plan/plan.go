// Package plan translates LLM workload configurations into per-GPU
// execution phases for the gpu package: an inference request becomes a
// prompt phase followed by a token-sampling phase; a training iteration
// becomes forward, backward, and gradient-synchronization phases.
//
// Plans encode the parallelism arithmetic (tensor-parallel sharding across
// the serving GPUs, all-reduce communication time) so that the GPU model
// receives realistic per-device FLOP, byte, and overhead figures.
package plan

import (
	"fmt"
	"math"

	"polca/internal/gpu"
	"polca/internal/llm"
)

// InferenceConfig describes one inference execution (paper §2 knobs).
type InferenceConfig struct {
	Model llm.Model
	DType llm.DType
	// TensorParallel is the number of GPUs serving the model. Zero means
	// the catalog default (Table 3).
	TensorParallel int
	BatchSize      int
	InputTokens    int // prompt length per request
	OutputTokens   int // generated tokens per request
	// NVLinkGBps is the inter-GPU bandwidth used for tensor-parallel
	// all-reduces. Zero means the A100 default (600 GB/s).
	NVLinkGBps float64
}

// withDefaults fills in catalog defaults and validates.
func (c InferenceConfig) withDefaults() (InferenceConfig, error) {
	c, err := c.withModelDefaults()
	if err != nil {
		return c, err
	}
	return c, checkSizes(c.BatchSize, c.InputTokens, c.OutputTokens)
}

// withModelDefaults fills in the catalog's tensor-parallel degree and
// validates the model and the degree, leaving the request sizes alone.
func (c InferenceConfig) withModelDefaults() (InferenceConfig, error) {
	if c.TensorParallel == 0 {
		c.TensorParallel = c.Model.InferenceGPUs
	}
	switch {
	case c.Model.Params <= 0:
		return c, fmt.Errorf("plan: no model")
	case c.TensorParallel <= 0:
		return c, fmt.Errorf("plan: bad tensor-parallel degree %d", c.TensorParallel)
	}
	return c, nil
}

// checkSizes validates one batch's request sizes.
func checkSizes(batch, input, output int) error {
	switch {
	case batch <= 0:
		return fmt.Errorf("plan: bad batch size %d", batch)
	case input <= 0:
		return fmt.Errorf("plan: bad input size %d", input)
	case output < 0:
		return fmt.Errorf("plan: bad output size %d", output)
	}
	return nil
}

// Inference is a per-GPU execution plan for one inference batch. Every GPU
// in the tensor-parallel group executes the same phases simultaneously.
type Inference struct {
	Config InferenceConfig
	// Prompt is the prompt-processing phase (compute-bound spike).
	Prompt gpu.Phase
	// Token is the aggregated token-sampling phase covering all output
	// tokens (memory-bound plateau). Zero-valued if OutputTokens == 0 or
	// the model is encoder-only.
	Token gpu.Phase
	// TokenSteps is the number of sequential sampling steps Token covers.
	TokenSteps int
	// MemUsedGB is the per-GPU resident memory (weights + peak KV).
	MemUsedGB float64
}

// Phases returns the plan's phases in execution order, omitting empty ones.
func (p Inference) Phases() []gpu.Phase {
	return p.AppendPhases(make([]gpu.Phase, 0, 2))
}

// AppendPhases appends the plan's phases to dst in execution order,
// omitting empty ones (at most two), and returns the extended slice.
func (p Inference) AppendPhases(dst []gpu.Phase) []gpu.Phase {
	if p.Prompt.FLOPs > 0 || p.Prompt.MemBytes > 0 {
		dst = append(dst, p.Prompt)
	}
	if p.TokenSteps > 0 {
		dst = append(dst, p.Token)
	}
	return dst
}

// Per-layer constants for overhead modelling. These are calibrated to the
// throughput ballpark of DeepSpeed-Inference/vLLM on A100s rather than to
// any single framework.
const (
	kernelsPerLayer     = 5     // fused kernels launched per layer per step
	kernelLaunchSec     = 12e-6 // launch+small-op cost per kernel at max clock
	allReduceLatencySec = 20e-6 // per-all-reduce latency on NVLink
	allReducesPerLayer  = 2     // tensor-parallel sync points per layer
)

// NewInference builds the per-GPU plan for an inference configuration.
func NewInference(c InferenceConfig) (Inference, error) {
	c, err := c.withDefaults()
	if err != nil {
		return Inference{}, err
	}
	k := c.fold()
	p := Inference{Config: c}
	k.build(&p, c.BatchSize, c.InputTokens, c.OutputTokens)
	return p, nil
}

// InferenceCost is an inference configuration without its request sizes
// (a model at one datatype, tensor-parallel degree and interconnect) with
// the constants of its per-GPU plan folded once, as llm.IterCost folds the
// model's. A row that plans every request of one model through it neither
// copies the Model nor re-validates the configuration per request.
// NewInference builds through it, so a plan has one formula, and each
// folded constant is a prefix of its expression's left-to-right
// evaluation, so folding moves no bits.
type InferenceCost struct {
	model        llm.IterCost
	dtype        llm.DType
	encoder      bool    // encoder-only: no sampled tokens
	tp           float64 // tensor-parallel degree
	allReduce    allReduce
	passOverhead float64 // PassOverheadSeconds
	weightsGB    float64 // resident weights per GPU
	kvBytesPerT  float64 // KV-cache bytes per token per sequence
}

// NewInferenceCost folds c's plan constants. It ignores c's request sizes
// and fails, as NewInference does, on a missing model or a bad
// tensor-parallel degree.
func NewInferenceCost(c InferenceConfig) (InferenceCost, error) {
	c, err := c.withModelDefaults()
	if err != nil {
		return InferenceCost{}, err
	}
	return c.fold(), nil
}

// fold folds a configuration that withModelDefaults has passed.
func (c InferenceConfig) fold() InferenceCost {
	m := c.Model
	tp := float64(c.TensorParallel)
	return InferenceCost{
		model:        m.IterCost(c.DType),
		dtype:        c.DType,
		encoder:      m.Arch == llm.Encoder,
		tp:           tp,
		allReduce:    newAllReduce(m, c.DType, c.TensorParallel, c.NVLinkGBps),
		passOverhead: PassOverheadSeconds(m),
		weightsGB:    m.WeightBytes(c.DType) / tp / 1e9,
		kvBytesPerT:  m.KVBytesPerToken(c.DType),
	}
}

// AppendPhases appends the phases of the plan for one batch of batch
// requests of input prompt and output generated tokens to dst, as
// Inference.AppendPhases does, and returns the extended slice. It fails,
// as NewInference does, on a bad size.
func (k *InferenceCost) AppendPhases(dst []gpu.Phase, batch, input, output int) ([]gpu.Phase, error) {
	if err := checkSizes(batch, input, output); err != nil {
		return dst, err
	}
	var p Inference
	k.build(&p, batch, input, output)
	return p.AppendPhases(dst), nil
}

// build fills p's phases, token steps and memory for valid sizes.
func (k *InferenceCost) build(p *Inference, batch, input, output int) {
	tp := k.tp

	// Encoder-only models produce no sampled tokens.
	outTokens := output
	if k.encoder {
		outTokens = 0
	}

	// --- Prompt phase ---
	p.Prompt = gpu.Phase{
		Name:            "prompt",
		DType:           k.dtype,
		FLOPs:           k.model.PromptFLOPs(batch, input) / tp,
		MemBytes:        k.model.PromptBytes(batch, input) / tp,
		TensorFrac:      0.97,
		Efficiency:      promptEfficiency(batch * input),
		CommSeconds:     k.allReduce.seconds(batch * input),
		OverheadSeconds: k.passOverhead,
	}

	// --- Token phase (aggregate of all sampling steps) ---
	if outTokens > 0 {
		// Use the mean KV length across the generation to aggregate steps.
		meanKV := input + outTokens/2
		stepFLOPs := k.model.TokenStepFLOPs(batch, meanKV) / tp
		stepBytes := k.model.TokenStepBytes(batch, meanKV) / tp
		steps := float64(outTokens)
		p.Token = gpu.Phase{
			Name:            "token",
			DType:           k.dtype,
			FLOPs:           stepFLOPs * steps,
			MemBytes:        stepBytes * steps,
			TensorFrac:      0.9,
			CommSeconds:     k.allReduce.seconds(batch) * steps,
			OverheadSeconds: k.passOverhead * steps,
		}
	}
	p.TokenSteps = outTokens

	kvGB := k.kvBytesPerT * float64(batch) * float64(input+outTokens) / tp / 1e9
	p.MemUsedGB = k.weightsGB + kvGB
}

// nvlink returns the configured interconnect bandwidth in bytes/s.
func (c InferenceConfig) nvlink() float64 {
	if c.NVLinkGBps > 0 {
		return c.NVLinkGBps * 1e9
	}
	return 600e9
}

// promptEfficiency returns the achieved fraction of peak tensor throughput
// for a prompt over the given number of tokens (batch × input). Small
// prompts run skinny GEMMs that underfill the tensor cores; efficiency
// saturates as prompts grow. This is what makes peak power rise steeply
// with input and batch size (Figure 8a/8c) while small prompts stay well
// below TDP.
func promptEfficiency(tokens int) float64 {
	e := float64(tokens) / (float64(tokens) + 400)
	return math.Min(math.Max(e, 0.15), 0.97)
}

// AllReduceSeconds returns the un-hideable tensor-parallel all-reduce time
// of one pass through the model with tokens activation rows in flight: two
// all-reduces per layer, each moving the tokens×hidden activation tensor
// at nvlinkGBps (0 = the A100 default) plus a fixed latency. Iteration-level
// schedulers use it with tokens = prompt-chunk tokens + decoding sequences
// so mixed batches pay the same sync cost the slot model's phases do.
func AllReduceSeconds(m llm.Model, dt llm.DType, tensorParallel, tokens int, nvlinkGBps float64) float64 {
	a := newAllReduce(m, dt, tensorParallel, nvlinkGBps)
	return a.seconds(tokens)
}

// allReduce is AllReduceSeconds with its model constants folded.
type allReduce struct {
	sharded    bool    // tensor-parallel degree above one
	hidden     float64 // model dimension
	bytes      float64 // datatype bytes per element
	nvlink     float64 // bytes/s
	layerSyncs float64 // Layers·allReducesPerLayer
}

func newAllReduce(m llm.Model, dt llm.DType, tensorParallel int, nvlinkGBps float64) allReduce {
	return allReduce{
		sharded:    tensorParallel > 1,
		hidden:     float64(m.Hidden),
		bytes:      dt.Bytes(),
		nvlink:     InferenceConfig{NVLinkGBps: nvlinkGBps}.nvlink(),
		layerSyncs: float64(m.Layers) * allReducesPerLayer,
	}
}

func (a *allReduce) seconds(tokens int) float64 {
	if !a.sharded || tokens <= 0 {
		return 0
	}
	actBytes := float64(tokens) * a.hidden * a.bytes
	perAR := actBytes/a.nvlink + allReduceLatencySec
	return a.layerSyncs * perAR
}

// PassOverheadSeconds returns the kernel-launch overhead of one full pass
// through the model at maximum clock — the same per-step constant the slot
// model's phases carry, exported for iteration-level schedulers.
func PassOverheadSeconds(m llm.Model) float64 {
	return float64(m.Layers) * kernelsPerLayer * kernelLaunchSec
}

// BatchEfficiency exposes the prompt-efficiency curve for iteration-level
// schedulers: the achieved fraction of peak tensor throughput when tokens
// rows (prompt-chunk tokens plus one per decoding sequence) run through the
// layer GEMMs in parallel. Decode-only iterations with small batches stay
// on the inefficient, memory-bound end; big mixed batches approach the
// prompt phase's saturation.
func BatchEfficiency(tokens int) float64 {
	return promptEfficiency(tokens)
}

// GPUsForDType returns the minimum number of A100-80GB GPUs needed to hold
// the model weights (plus ~10% runtime state) at the given datatype,
// reproducing the paper's datatype study (§4.2): Llama2-70B needs four
// GPUs at FP32 but two at FP16 or INT8.
func GPUsForDType(m llm.Model, dt llm.DType, gpuMemGB float64) int {
	need := m.WeightBytes(dt) * 1.1 / 1e9
	n := int(math.Ceil(need / gpuMemGB))
	if n < 1 {
		n = 1
	}
	return n
}

// TrainingConfig describes a fine-tuning setup (paper §3.4: batch sized to
// ~85% of GPU memory, 8 GPUs per server).
type TrainingConfig struct {
	Model  llm.Model
	DType  llm.DType
	GPUs   int // data/tensor-parallel degree on the server
	Batch  int // global batch size in sequences
	SeqLen int
	// Efficiency is the achieved fraction of peak math throughput (small
	// models launch small kernels with low occupancy). Zero means 1.0.
	Efficiency float64
	// SyncOverlap is the fraction of compute that stays resident on the
	// GPUs during the end-of-iteration gradient synchronization (0 = GPUs
	// drain to idle, as with Flan-T5 under ZeRO offloading; ~0.6 ≈
	// RoBERTa's shallow trough). It controls Figure 4's trough depths.
	SyncOverlap float64
	// SyncSeconds is the duration of the iteration-boundary synchronization
	// (all-reduce + optimizer step + data loading).
	SyncSeconds float64
	// MidDipSeconds is the brief forward/backward boundary dip.
	MidDipSeconds float64
}

// TrainingProfiles returns the paper's three fine-tuning setups (Figure 4)
// with per-model synchronization behaviour calibrated to the published
// trough depths: RoBERTa stays near 75% TDP at iteration boundaries,
// GPT-NeoX drops to ~50%, Flan-T5 falls to idle (~20%).
func TrainingProfiles() []TrainingConfig {
	roberta := llm.MustByName("RoBERTa-355M")
	neox := llm.MustByName("GPT-NeoX-20B")
	flant5 := llm.MustByName("Flan-T5-XXL-11B")
	return []TrainingConfig{
		{Model: roberta, DType: llm.FP16, GPUs: 8, Batch: 768, SeqLen: 512,
			Efficiency: 0.6, SyncOverlap: 0.53, SyncSeconds: 0.2, MidDipSeconds: 0.06},
		{Model: neox, DType: llm.FP16, GPUs: 8, Batch: 16, SeqLen: 2048,
			Efficiency: 1.0, SyncOverlap: 0.32, SyncSeconds: 0.5, MidDipSeconds: 0.1},
		{Model: flant5, DType: llm.FP16, GPUs: 8, Batch: 96, SeqLen: 1024,
			Efficiency: 0.9, SyncOverlap: 0.0, SyncSeconds: 1.2, MidDipSeconds: 0.15},
	}
}

// Training is a per-GPU plan for one training iteration.
type Training struct {
	Config   TrainingConfig
	Forward  gpu.Phase
	MidDip   gpu.Phase // thread sync between forward and backward
	Backward gpu.Phase
	Sync     gpu.Phase // iteration-boundary gradient sync / optimizer
}

// Phases returns the iteration's phases in execution order.
func (t Training) Phases() []gpu.Phase {
	return []gpu.Phase{t.Forward, t.MidDip, t.Backward, t.Sync}
}

// NewTraining builds the per-GPU plan for one training iteration.
func NewTraining(c TrainingConfig) (Training, error) {
	switch {
	case c.Model.Params <= 0:
		return Training{}, fmt.Errorf("plan: no model")
	case c.GPUs <= 0 || c.Batch <= 0 || c.SeqLen <= 0:
		return Training{}, fmt.Errorf("plan: bad training shape %d/%d/%d", c.GPUs, c.Batch, c.SeqLen)
	case c.SyncOverlap < 0 || c.SyncOverlap > 1:
		return Training{}, fmt.Errorf("plan: bad sync overlap %v", c.SyncOverlap)
	}
	m := c.Model
	n := float64(c.GPUs)
	total := m.TrainStepFLOPs(c.Batch, c.SeqLen)
	fwdFLOPs := total / 3 / n // forward is 2·P of the 6·P per token
	bwdFLOPs := total * 2 / 3 / n
	actBytes := 14 * float64(m.Layers) * float64(m.Hidden) * c.DType.Bytes() *
		float64(c.Batch) * float64(c.SeqLen) / n

	fwd := gpu.Phase{
		Name:            "forward",
		DType:           c.DType,
		FLOPs:           fwdFLOPs,
		MemBytes:        actBytes,
		TensorFrac:      0.95,
		Efficiency:      c.Efficiency,
		OverheadSeconds: float64(m.Layers) * kernelsPerLayer * kernelLaunchSec,
	}
	bwd := gpu.Phase{
		Name:            "backward",
		DType:           c.DType,
		FLOPs:           bwdFLOPs,
		MemBytes:        2 * actBytes,
		TensorFrac:      0.95,
		Efficiency:      c.Efficiency,
		OverheadSeconds: 2 * float64(m.Layers) * kernelsPerLayer * kernelLaunchSec,
	}
	// The dips are communication/synchronization stalls: low math, some
	// residual activity proportional to the overlap factor.
	mid := syncPhase("middip", c, c.MidDipSeconds, math.Min(c.SyncOverlap+0.15, 1))
	sync := syncPhase("sync", c, c.SyncSeconds, c.SyncOverlap)
	return Training{Config: c, Forward: fwd, MidDip: mid, Backward: bwd, Sync: sync}, nil
}

// syncPhase builds a stall phase of the given duration whose residual GPU
// activity is proportional to overlap.
func syncPhase(name string, c TrainingConfig, seconds, overlap float64) gpu.Phase {
	// Residual math keeps the SMs overlap-fraction busy for the duration.
	spec := gpu.A100SXM80GB()
	flops := spec.PeakFLOPS(c.DType) * c.DType.KernelEfficiency() * overlap * seconds
	return gpu.Phase{
		Name:        name,
		DType:       c.DType,
		FLOPs:       flops,
		MemBytes:    0.2 * overlap * seconds * spec.MemBandwidthGBps * 1e9,
		TensorFrac:  0.9,
		CommSeconds: seconds * (1 - overlap),
	}
}
