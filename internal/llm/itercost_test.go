package llm

import (
	"math"
	"testing"
)

// The unfolded cost formulas: each rebuilds the model
// constants on every call. IterCost must reproduce them bit for bit.

func (m Model) PrefillChunkFLOPs(chunk, ctx int) float64 {
	if chunk <= 0 {
		return 0
	}
	c, k := float64(chunk), float64(ctx)
	linear := 2 * float64(m.Params) * c
	pairs := c*k + c*c/2
	attn := 4 * float64(m.Layers) * float64(m.Hidden) * pairs * float64(m.kvHeads()) / float64(m.Heads)
	return linear + attn
}

func (m Model) PrefillChunkBytes(dt DType, chunk, ctx int) float64 {
	if chunk <= 0 {
		return 0
	}
	c := float64(chunk)
	activations := 12 * float64(m.Layers) * float64(m.Hidden) * dt.Bytes() * c
	kv := m.KVBytesPerToken(dt) * (c + float64(ctx))
	return activations + kv
}

func (m Model) PromptFLOPs(batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	linear := 2 * float64(m.Params) * tokens
	attn := 2 * float64(m.Layers) * float64(inputLen) * float64(m.Hidden) * tokens
	return linear + attn
}

func (m Model) TokenStepFLOPs(batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	b := float64(batch)
	linear := 2 * float64(m.Params) * b
	attn := 4 * float64(m.Layers) * float64(kvLen) * float64(m.Hidden) * b * float64(m.kvHeads()) / float64(m.Heads)
	return linear + attn
}

func (m Model) PromptBytes(dt DType, batch, inputLen int) float64 {
	if batch <= 0 || inputLen <= 0 {
		return 0
	}
	tokens := float64(batch) * float64(inputLen)
	activations := 12 * float64(m.Layers) * float64(m.Hidden) * dt.Bytes() * tokens
	return m.WeightBytes(dt)*dt.MemAmplification() + activations
}

func (m Model) TokenStepBytes(dt DType, batch, kvLen int) float64 {
	if batch <= 0 {
		return 0
	}
	kv := m.KVBytesPerToken(dt) * float64(kvLen) * float64(batch)
	return m.WeightBytes(dt)*dt.MemAmplification() + kv
}

func (m Model) DecodeSpanFLOPs(steps, kvStart int) float64 {
	if steps <= 0 {
		return 0
	}
	s, k := float64(steps), float64(kvStart)
	linear := 2 * float64(m.Params) * s
	pairs := s*k + s*(s-1)/2
	attn := 4 * float64(m.Layers) * float64(m.Hidden) * pairs * float64(m.kvHeads()) / float64(m.Heads)
	return linear + attn
}

func (m Model) DecodeSpanBytes(dt DType, steps, kvStart int) float64 {
	if steps <= 0 {
		return 0
	}
	s, k := float64(steps), float64(kvStart)
	activations := 12 * float64(m.Layers) * float64(m.Hidden) * dt.Bytes() * s
	kvRead := m.KVBytesPerToken(dt) * (s*k + s*(s-1)/2)
	kvWrite := m.KVBytesPerToken(dt) * s
	return activations + kvRead + kvWrite
}

// TestIterCostMatchesUnfolded checks the folded costs against the unfolded
// formulas with ==, over every catalog model, every datatype and a grid of
// step counts, KV lengths, chunk sizes, contexts, batch sizes and prompt
// lengths, non-positive counts included.
func TestIterCostMatchesUnfolded(t *testing.T) {
	counts := []int{-1, 0, 1, 2, 3, 7, 8, 9, 31, 64, 127, 512, 904, 2047, 2048, 4000}
	lengths := []int{0, 1, 5, 63, 64, 100, 1200, 2048, 4095, 8191, 32768, 131071}
	for _, m := range Catalog() {
		for _, dt := range []DType{FP32, FP16, INT8, FP8} {
			c := m.IterCost(dt)
			for _, n := range counts {
				for _, k := range lengths {
					check := func(name string, got, want float64) {
						if got != want {
							t.Fatalf("%s %s %s(%d, %d) = %v (%#x), unfolded %v (%#x)",
								m.Name, dt, name, n, k, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
					check("DecodeSpanFLOPs", c.DecodeSpanFLOPs(n, k), m.DecodeSpanFLOPs(n, k))
					check("DecodeSpanBytes", c.DecodeSpanBytes(n, k), m.DecodeSpanBytes(dt, n, k))
					check("PrefillChunkFLOPs", c.PrefillChunkFLOPs(n, k), m.PrefillChunkFLOPs(n, k))
					check("PrefillChunkBytes", c.PrefillChunkBytes(n, k), m.PrefillChunkBytes(dt, n, k))
					check("PromptFLOPs", c.PromptFLOPs(n, k), m.PromptFLOPs(n, k))
					check("PromptBytes", c.PromptBytes(n, k), m.PromptBytes(dt, n, k))
					check("TokenStepFLOPs", c.TokenStepFLOPs(n, k), m.TokenStepFLOPs(n, k))
					check("TokenStepBytes", c.TokenStepBytes(n, k), m.TokenStepBytes(dt, n, k))
				}
			}
		}
	}
}
