package plan

import (
	"fmt"
	"testing"

	"polca/internal/gpu"
	"polca/internal/llm"
)

// legacyNewInference is NewInference as it stood before the plan constants
// were folded into InferenceCost, kept verbatim but for the llm.Model
// cost methods it called, which are the legacy* functions below.
// TestNewInferenceMatchesLegacy pins the folded plan to it with ==.
func legacyNewInference(c InferenceConfig) (Inference, error) {
	c, err := legacyWithDefaults(c)
	if err != nil {
		return Inference{}, err
	}
	m := c.Model
	tp := float64(c.TensorParallel)

	// Encoder-only models produce no sampled tokens.
	outTokens := c.OutputTokens
	if m.Arch == llm.Encoder {
		outTokens = 0
	}

	// --- Prompt phase ---
	promptFLOPs := legacyPromptFLOPs(m, c.BatchSize, c.InputTokens) / tp
	promptBytes := legacyPromptBytes(m, c.DType, c.BatchSize, c.InputTokens) / tp
	prompt := gpu.Phase{
		Name:            "prompt",
		DType:           c.DType,
		FLOPs:           promptFLOPs,
		MemBytes:        promptBytes,
		TensorFrac:      0.97,
		Efficiency:      promptEfficiency(c.BatchSize * c.InputTokens),
		CommSeconds:     legacyPromptComm(m, c),
		OverheadSeconds: float64(m.Layers) * kernelsPerLayer * kernelLaunchSec,
	}

	// --- Token phase (aggregate of all sampling steps) ---
	var token gpu.Phase
	if outTokens > 0 {
		// Use the mean KV length across the generation to aggregate steps.
		meanKV := c.InputTokens + outTokens/2
		stepFLOPs := legacyTokenStepFLOPs(m, c.BatchSize, meanKV) / tp
		stepBytes := legacyTokenStepBytes(m, c.DType, c.BatchSize, meanKV) / tp
		steps := float64(outTokens)
		token = gpu.Phase{
			Name:            "token",
			DType:           c.DType,
			FLOPs:           stepFLOPs * steps,
			MemBytes:        stepBytes * steps,
			TensorFrac:      0.9,
			CommSeconds:     legacyTokenComm(m, c) * steps,
			OverheadSeconds: float64(m.Layers) * kernelsPerLayer * kernelLaunchSec * steps,
		}
	}

	weightsGB := m.WeightBytes(c.DType) / tp / 1e9
	kvGB := m.KVBytesPerToken(c.DType) * float64(c.BatchSize) * float64(c.InputTokens+outTokens) / tp / 1e9
	return Inference{
		Config:     c,
		Prompt:     prompt,
		Token:      token,
		TokenSteps: outTokens,
		MemUsedGB:  weightsGB + kvGB,
	}, nil
}

func legacyWithDefaults(c InferenceConfig) (InferenceConfig, error) {
	if c.TensorParallel == 0 {
		c.TensorParallel = c.Model.InferenceGPUs
	}
	switch {
	case c.Model.Params <= 0:
		return c, fmt.Errorf("plan: no model")
	case c.TensorParallel <= 0:
		return c, fmt.Errorf("plan: bad tensor-parallel degree %d", c.TensorParallel)
	case c.BatchSize <= 0:
		return c, fmt.Errorf("plan: bad batch size %d", c.BatchSize)
	case c.InputTokens <= 0:
		return c, fmt.Errorf("plan: bad input size %d", c.InputTokens)
	case c.OutputTokens < 0:
		return c, fmt.Errorf("plan: bad output size %d", c.OutputTokens)
	}
	return c, nil
}

func legacyPromptComm(m llm.Model, c InferenceConfig) float64 {
	return legacyAllReduceSeconds(m, c.DType, c.TensorParallel, c.BatchSize*c.InputTokens, c.NVLinkGBps)
}

func legacyTokenComm(m llm.Model, c InferenceConfig) float64 {
	return legacyAllReduceSeconds(m, c.DType, c.TensorParallel, c.BatchSize, c.NVLinkGBps)
}

func legacyAllReduceSeconds(m llm.Model, dt llm.DType, tensorParallel, tokens int, nvlinkGBps float64) float64 {
	if tensorParallel <= 1 || tokens <= 0 {
		return 0
	}
	nvlink := InferenceConfig{NVLinkGBps: nvlinkGBps}.nvlink()
	actBytes := float64(tokens) * float64(m.Hidden) * dt.Bytes()
	perAR := actBytes/nvlink + allReduceLatencySec
	return float64(m.Layers) * allReducesPerLayer * perAR
}

func legacyKVHeads(m llm.Model) int {
	if m.KVHeads > 0 {
		return m.KVHeads
	}
	return m.Heads
}

func legacyPromptFLOPs(m llm.Model, batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	linear := 2 * float64(m.Params) * tokens
	attn := 2 * float64(m.Layers) * float64(inputLen) * float64(m.Hidden) * tokens
	return linear + attn
}

func legacyTokenStepFLOPs(m llm.Model, batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	b := float64(batch)
	linear := 2 * float64(m.Params) * b
	attn := 4 * float64(m.Layers) * float64(kvLen) * float64(m.Hidden) * b * float64(legacyKVHeads(m)) / float64(m.Heads)
	return linear + attn
}

func legacyPromptBytes(m llm.Model, dt llm.DType, batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	activations := 12 * float64(m.Layers) * float64(m.Hidden) * dt.Bytes() * tokens
	return m.WeightBytes(dt)*dt.MemAmplification() + activations
}

func legacyTokenStepBytes(m llm.Model, dt llm.DType, batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	kv := m.KVBytesPerToken(dt) * float64(kvLen) * float64(batch)
	return m.WeightBytes(dt)*dt.MemAmplification() + kv
}

// TestNewInferenceMatchesLegacy checks NewInference, and the phases
// InferenceCost.AppendPhases builds, against the legacy unfolded plan with
// ==, over every catalog model and datatype, the catalog and explicit
// tensor-parallel degrees, two interconnects and a grid of batch, prompt
// and output sizes, invalid sizes included (which must fail alike).
func TestNewInferenceMatchesLegacy(t *testing.T) {
	batches := []int{-1, 0, 1, 2, 3, 8, 64}
	inputs := []int{-1, 0, 1, 2, 7, 64, 100, 399, 400, 512, 1500, 2048, 8191}
	outputs := []int{-1, 0, 1, 2, 5, 63, 64, 256, 1000, 4000}
	var checked int
	for _, m := range llm.Catalog() {
		for _, dt := range []llm.DType{llm.FP32, llm.FP16, llm.INT8, llm.FP8} {
			for _, tp := range []int{0, 1, 2, 8} {
				for _, nvlink := range []float64{0, 300} {
					base := InferenceConfig{Model: m, DType: dt, TensorParallel: tp, NVLinkGBps: nvlink}
					k, err := NewInferenceCost(base)
					if err != nil {
						t.Fatalf("%s %s tp=%d: %v", m.Name, dt, tp, err)
					}
					for _, b := range batches {
						for _, in := range inputs {
							for _, out := range outputs {
								c := base
								c.BatchSize, c.InputTokens, c.OutputTokens = b, in, out
								name := fmt.Sprintf("%s %s tp=%d nvlink=%g %d/%d/%d", m.Name, dt, tp, nvlink, b, in, out)
								got, gotErr := NewInference(c)
								want, wantErr := legacyNewInference(c)
								if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
									t.Fatalf("%s: NewInference = %+v, %v\nlegacy         %+v, %v", name, got, gotErr, want, wantErr)
								}
								phases, err := k.AppendPhases(nil, b, in, out)
								if fmt.Sprint(err) != fmt.Sprint(wantErr) {
									t.Fatalf("%s: AppendPhases error %v, legacy %v", name, err, wantErr)
								}
								if wantPhases := want.Phases(); wantErr == nil && !samePhases(phases, wantPhases) {
									t.Fatalf("%s: AppendPhases = %+v, legacy %+v", name, phases, wantPhases)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d configurations checked", checked)
}

func samePhases(a, b []gpu.Phase) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInferenceCostRejectsBadConfig checks NewInferenceCost fails as
// NewInference does on a missing model or tensor-parallel degree.
func TestInferenceCostRejectsBadConfig(t *testing.T) {
	noGPUs := llm.MustByName("OPT-30B")
	noGPUs.InferenceGPUs = 0
	for _, c := range []InferenceConfig{
		{},
		{Model: noGPUs, DType: llm.FP16},
		{Model: llm.MustByName("OPT-30B"), TensorParallel: -2},
	} {
		_, err := NewInferenceCost(c)
		c.BatchSize, c.InputTokens = 1, 1
		_, want := NewInference(c)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%+v: NewInferenceCost error %v, NewInference %v", c, err, want)
		}
	}
}
