// Package serve is the request-level inference serving subsystem: a
// vLLM-style continuous-batching scheduler that runs on the sim engine and
// drives the llm/gpu analytical models at iteration granularity.
//
// The slot model in internal/cluster dispatches whole requests into
// per-server slots with precomputed mean service times — good enough for
// the paper's row-level power envelopes, but blind to the mechanism
// production serving stacks actually run: every iteration interleaves
// prompt-chunk prefill with one decode step per running sequence, so the
// power signal POLCA caps against is a mix of the compute-bound prompt
// spike and the memory-bound decode plateau, shifting with batch
// composition. This package models that mechanism:
//
//   - Replica is one tensor-parallel serving instance (one server in the
//     row). Its iteration loop admits waiting prompts up to a token budget
//     (chunked prefill), decodes the running batch one step per iteration,
//     tracks per-request KV-cache bytes through the llm attention
//     arithmetic, and preempts-with-recompute when HBM fills.
//   - Each iteration is synthesized into one gpu.Phase from its exact
//     prompt/decode token mix and run through gpu.Device.Run, so mixed
//     batches land between the pure prompt spike and the pure decode
//     plateau, and OOB frequency caps, power caps, and the brake throttle
//     iterations exactly as they throttle slot-model phases.
//   - Router spreads arrivals across replicas under pluggable policies
//     (round-robin, least-queue, least-KV, power-aware).
//
// Everything is deterministic: the scheduler draws no randomness, ties
// break on lowest replica index, and all timing flows through the engine,
// so reruns with the same seed are byte-identical.
package serve

import (
	"fmt"

	"polca/internal/gpu"
	"polca/internal/llm"
)

// Config shapes one serving replica. The zero value is not valid; use
// DefaultConfig or fill Model/DType (defaults apply via NewReplica).
type Config struct {
	Model llm.Model
	DType llm.DType

	// TensorParallel is the GPU count serving the model (0 = the model's
	// catalog default). The replica models one tensor-parallel group; every
	// GPU in it executes identical phases.
	TensorParallel int

	// MaxBatchSize caps concurrent running sequences (default 32).
	MaxBatchSize int

	// MaxBatchTokens is the per-iteration token budget shared by prompt
	// chunks and decode steps (default 2048). Prompts longer than the
	// budget prefill across several iterations (chunked prefill).
	MaxBatchTokens int

	// GPUMemUtil is the fraction of HBM the scheduler may use for weights
	// plus KV cache (default 0.90, vLLM's gpu_memory_utilization).
	GPUMemUtil float64

	// QueueCap bounds the per-replica waiting queue; arrivals beyond it are
	// shed (default 64).
	QueueCap int

	// DecodeStride aggregates up to this many consecutive decode-only
	// iterations into one simulated step when no prefill work is pending
	// (default 8, vLLM's multi-step scheduling). The per-token cost stays
	// exact — llm.IterCost's DecodeSpanFLOPs/Bytes keep the growing-KV
	// arithmetic — but the event count drops by the stride. Set 1 for
	// strictly one step per iteration (the calibration tests do).
	DecodeStride int

	// Router names the routing policy used when the replica pool routes
	// arrivals (default "least-queue"): one of RouterNames.
	Router string
}

// WithDefaults fills zero fields with their documented defaults.
func (c Config) WithDefaults() Config {
	if c.TensorParallel == 0 {
		c.TensorParallel = c.Model.InferenceGPUs
	}
	if c.MaxBatchSize == 0 {
		c.MaxBatchSize = 32
	}
	if c.MaxBatchTokens == 0 {
		c.MaxBatchTokens = 2048
	}
	if c.GPUMemUtil == 0 {
		c.GPUMemUtil = 0.90
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.DecodeStride == 0 {
		c.DecodeStride = 8
	}
	if c.Router == "" {
		c.Router = "least-queue"
	}
	return c
}

// Validate checks the configuration against the GPU it will run on: the
// model must fit in HBM with room for at least one full iteration budget of
// KV cache, otherwise the scheduler would thrash or deadlock.
func (c Config) Validate(spec gpu.Spec) error {
	c = c.WithDefaults()
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch {
	case c.MaxBatchSize < 1:
		return fmt.Errorf("serve: bad max batch size %d", c.MaxBatchSize)
	case c.MaxBatchTokens < c.MaxBatchSize:
		return fmt.Errorf("serve: token budget %d below batch size %d", c.MaxBatchTokens, c.MaxBatchSize)
	case c.GPUMemUtil <= 0 || c.GPUMemUtil > 1:
		return fmt.Errorf("serve: bad GPU memory utilization %v", c.GPUMemUtil)
	case c.QueueCap < 1:
		return fmt.Errorf("serve: bad queue cap %d", c.QueueCap)
	case c.DecodeStride < 1:
		return fmt.Errorf("serve: bad decode stride %d", c.DecodeStride)
	}
	if _, err := NewRouter(c.Router); err != nil {
		return err
	}
	kvCap := c.kvCapacityBytes(spec)
	if minKV := c.kvBytesPerToken() * float64(c.MaxBatchTokens); kvCap < minKV {
		return fmt.Errorf("serve: %s at %s on %.0f GB leaves %.1f GB for KV, below one iteration budget (%.1f GB)",
			c.Model.Name, c.DType, spec.MemoryGB, kvCap/1e9, minKV/1e9)
	}
	return nil
}

// kvBytesPerToken is the per-GPU KV-cache growth per token.
func (c Config) kvBytesPerToken() float64 {
	return c.Model.KVBytesPerToken(c.DType) / float64(c.TensorParallel)
}

// kvCapacityBytes is the per-GPU HBM available for KV cache after weights.
func (c Config) kvCapacityBytes(spec gpu.Spec) float64 {
	return spec.MemoryGB*1e9*c.GPUMemUtil - c.Model.WeightBytes(c.DType)/float64(c.TensorParallel)
}
