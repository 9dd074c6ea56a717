package llm

import (
	"math"
	"testing"
)

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestPrefillChunkAdditivity pins the property continuous batching relies
// on: splitting a prompt into chunks never changes the total prefill cost.
func TestPrefillChunkAdditivity(t *testing.T) {
	for _, m := range Catalog() {
		c := m.IterCost(FP16)
		for _, split := range [][2]int{{1, 1}, {100, 300}, {2048, 904}, {17, 4000}} {
			a, b := split[0], split[1]
			whole := c.PrefillChunkFLOPs(a+b, 0)
			parts := c.PrefillChunkFLOPs(a, 0) + c.PrefillChunkFLOPs(b, a)
			if !relClose(whole, parts) {
				t.Errorf("%s: chunk FLOPs %d+%d = %g, whole = %g", m.Name, a, b, parts, whole)
			}
			// Bytes are additive except for one real cost of chunking:
			// the second chunk re-reads the first chunk's KV cache.
			wholeB := c.PrefillChunkBytes(a+b, 0) + m.KVBytesPerToken(FP16)*float64(a)
			partsB := c.PrefillChunkBytes(a, 0) + c.PrefillChunkBytes(b, a)
			if !relClose(wholeB, partsB) {
				t.Errorf("%s: chunk bytes %d+%d = %g, whole+reread = %g", m.Name, a, b, partsB, wholeB)
			}
		}
	}
}

// TestDecodeSpanMatchesSingleSteps pins the multi-step aggregation: a span
// of s decode steps costs exactly the sum of s single steps over the
// growing KV cache, in both FLOPs and bytes (beyond the per-pass weight
// stream, which the span caller pays separately).
func TestDecodeSpanMatchesSingleSteps(t *testing.T) {
	for _, m := range Catalog() {
		cost := m.IterCost(FP16)
		for _, c := range []struct{ steps, kv int }{{1, 0}, {8, 64}, {33, 1200}, {300, 5}} {
			var sum float64
			var sumB float64
			for i := 0; i < c.steps; i++ {
				sum += cost.DecodeSpanFLOPs(1, c.kv+i)
				sumB += cost.DecodeSpanBytes(1, c.kv+i)
			}
			if span := cost.DecodeSpanFLOPs(c.steps, c.kv); !relClose(span, sum) {
				t.Errorf("%s: span FLOPs(%d,%d) = %g, step sum = %g", m.Name, c.steps, c.kv, span, sum)
			}
			if span := cost.DecodeSpanBytes(c.steps, c.kv); !relClose(span, sumB) {
				t.Errorf("%s: span bytes(%d,%d) = %g, step sum = %g", m.Name, c.steps, c.kv, span, sumB)
			}
		}
	}
}

// TestPrefillChunkMatchesPromptFLOPs checks the chunk arithmetic reduces to
// the slot model's prompt cost for a full-prompt chunk: exactly when every
// head carries KV (the causal halving is the same constant), and never
// above it under grouped-query attention.
func TestPrefillChunkMatchesPromptFLOPs(t *testing.T) {
	bloom := MustByName("BLOOM-176B") // KVHeads == 0: full multi-head KV
	bloomCost := bloom.IterCost(FP16)
	for _, n := range []int{1, 400, 2048} {
		if got, want := bloomCost.PrefillChunkFLOPs(n, 0), bloomCost.PromptFLOPs(1, n); !relClose(got, want) {
			t.Errorf("BLOOM chunk(%d, 0) = %g, PromptFLOPs = %g", n, got, want)
		}
	}
	gqa := MustByName("Llama2-70B") // KVHeads 8 of 64
	gqaCost := gqa.IterCost(FP16)
	if got, want := gqaCost.PrefillChunkFLOPs(2048, 0), gqaCost.PromptFLOPs(1, 2048); got > want {
		t.Errorf("Llama2-70B chunk attention %g exceeds full multi-head prompt cost %g", got, want)
	}
}
