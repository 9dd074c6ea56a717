package llm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCatalogMatchesTable3(t *testing.T) {
	// Table 3 of the paper: model -> (#params, #inference GPUs).
	want := map[string]struct {
		params float64
		gpus   int
	}{
		"RoBERTa-355M":    {355e6, 1},
		"Llama2-13B":      {13e9, 1},
		"GPT-NeoX-20B":    {20e9, 2},
		"OPT-30B":         {30e9, 4},
		"Llama2-70B":      {70e9, 4},
		"BLOOM-176B":      {176e9, 8},
		"Flan-T5-XXL-11B": {11e9, 1},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d models, want %d", len(cat), len(want))
	}
	for _, m := range cat {
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected model %s", m.Name)
			continue
		}
		if float64(m.Params) != w.params {
			t.Errorf("%s params = %d, want %g", m.Name, m.Params, w.params)
		}
		if m.InferenceGPUs != w.gpus {
			t.Errorf("%s gpus = %d, want %d", m.Name, m.InferenceGPUs, w.gpus)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
}

func TestCatalogArchitectures(t *testing.T) {
	archs := map[string]Arch{
		"RoBERTa-355M":    Encoder,
		"Flan-T5-XXL-11B": EncoderDecoder,
		"Llama2-13B":      Decoder,
		"GPT-NeoX-20B":    Decoder,
		"OPT-30B":         Decoder,
		"Llama2-70B":      Decoder,
		"BLOOM-176B":      Decoder,
	}
	for name, arch := range archs {
		if m := MustByName(name); m.Arch != arch {
			t.Errorf("%s arch = %v, want %v", name, m.Arch, arch)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("BLOOM-176B"); err != nil {
		t.Errorf("ByName known model: %v", err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("ByName unknown model: want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName unknown: want panic")
		}
	}()
	MustByName("nope")
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{},
		{Name: "x", Params: -1, Layers: 1, Hidden: 8, Heads: 2, InferenceGPUs: 1},
		{Name: "x", Params: 1, Layers: 0, Hidden: 8, Heads: 2, InferenceGPUs: 1},
		{Name: "x", Params: 1, Layers: 1, Hidden: 9, Heads: 2, InferenceGPUs: 1},
		{Name: "x", Params: 1, Layers: 1, Hidden: 8, Heads: 2, InferenceGPUs: 0},
		{Name: "x", Params: 1, Layers: 1, Hidden: 8, Heads: 4, KVHeads: 3, InferenceGPUs: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: want error for %+v", i, m)
		}
	}
}

func TestDTypeBytes(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Error("datatype sizes wrong")
	}
	if FP16.KernelEfficiency() <= FP32.KernelEfficiency() {
		t.Error("FP16 kernels should beat FP32 (paper §4.2)")
	}
	if INT8.KernelEfficiency() >= FP16.KernelEfficiency() {
		t.Error("INT8 kernels should be slower than FP16 (paper §4.2)")
	}
}

func TestWeightBytesScalesWithDType(t *testing.T) {
	m := MustByName("Llama2-70B")
	if m.WeightBytes(FP32) != 2*m.WeightBytes(FP16) {
		t.Error("FP32 weights should be 2x FP16")
	}
	if m.WeightBytes(FP16) != 2*m.WeightBytes(INT8) {
		t.Error("FP16 weights should be 2x INT8")
	}
	// 70B at FP16 = 140 GB: needs 2 GPUs' worth of 80 GB memory, per paper.
	if gb := m.WeightBytes(FP16) / 1e9; gb < 130 || gb > 150 {
		t.Errorf("Llama2-70B FP16 = %.0f GB, want ~140", gb)
	}
}

func TestPromptFLOPsDominatedByLinearTerm(t *testing.T) {
	m := MustByName("BLOOM-176B")
	c := m.IterCost(FP16)
	f := c.PromptFLOPs(1, 2048)
	approx := 2 * float64(m.Params) * 2048
	if f < approx {
		t.Errorf("prompt FLOPs %g below linear floor %g", f, approx)
	}
	if f > 2*approx {
		t.Errorf("attention term dominates at 2048 tokens: %g vs %g", f, approx)
	}
}

func TestTokenStepIsMemoryBound(t *testing.T) {
	// Arithmetic intensity (FLOPs/byte) of a token step at batch 1 must be
	// far below the A100 ridge point (~200 FLOPs/byte at FP16), while the
	// prompt phase at large input must be far above it. This is the root
	// cause of the paper's two-phase power signature.
	for _, m := range InferenceModels() {
		c := m.IterCost(FP16)
		tokenAI := c.TokenStepFLOPs(1, 512) / c.TokenStepBytes(1, 512)
		promptAI := c.PromptFLOPs(1, 2048) / c.PromptBytes(1, 2048)
		if tokenAI > 20 {
			t.Errorf("%s token-phase arithmetic intensity %.1f too high", m.Name, tokenAI)
		}
		if promptAI < 100 {
			t.Errorf("%s prompt-phase arithmetic intensity %.1f too low", m.Name, promptAI)
		}
		if promptAI < 10*tokenAI {
			t.Errorf("%s: prompt AI %.1f not >> token AI %.1f", m.Name, promptAI, tokenAI)
		}
	}
}

func TestFLOPsMonotonicity(t *testing.T) {
	m := MustByName("GPT-NeoX-20B")
	c := m.IterCost(FP16)
	f := func(a, b uint8) bool {
		b1, b2 := int(a%16)+1, int(b%16)+1
		i1, i2 := (int(a)%32+1)*64, (int(b)%32+1)*64
		if b1 <= b2 && i1 <= i2 {
			if c.PromptFLOPs(b1, i1) > c.PromptFLOPs(b2, i2) {
				return false
			}
			if c.TokenStepFLOPs(b1, i1) > c.TokenStepFLOPs(b2, i2) {
				return false
			}
			if c.TokenStepBytes(b1, i1) > c.TokenStepBytes(b2, i2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	m := MustByName("OPT-30B")
	c := m.IterCost(FP16)
	if c.PromptFLOPs(0, 100) != 0 || c.PromptFLOPs(1, 0) != 0 {
		t.Error("zero batch/input should cost nothing")
	}
	if c.TokenStepFLOPs(0, 5) != 0 {
		t.Error("zero batch token step should cost nothing")
	}
	if c.PromptBytes(0, 10) != 0 || c.TokenStepBytes(-1, 0) != 0 {
		t.Error("non-positive batch byte traffic should be zero")
	}
	if m.TrainStepFLOPs(0, 1) != 0 || m.TrainStepFLOPs(1, 0) != 0 {
		t.Error("degenerate training step should cost nothing")
	}
}

func TestTrainVsInferenceCost(t *testing.T) {
	m := MustByName("RoBERTa-355M")
	c := m.IterCost(FP16)
	train := m.TrainStepFLOPs(8, 512)
	infer := c.PromptFLOPs(8, 512)
	if ratio := train / infer; ratio < 2.5 || ratio > 3.5 {
		t.Errorf("train/infer FLOP ratio = %.2f, want ~3 (fwd+bwd)", ratio)
	}
}

func TestKVCacheGQA(t *testing.T) {
	llama := MustByName("Llama2-70B") // 8 KV heads of 64
	bloom := MustByName("BLOOM-176B") // full MHA
	lr := llama.KVBytesPerToken(FP16) / (2 * float64(llama.Layers) * float64(llama.Hidden) * 2)
	if lr >= 1 {
		t.Errorf("GQA should shrink KV cache, ratio = %v", lr)
	}
	br := bloom.KVBytesPerToken(FP16) / (2 * float64(bloom.Layers) * float64(bloom.Hidden) * 2)
	if br != 1 {
		t.Errorf("MHA KV ratio = %v, want 1", br)
	}
}

func TestArchAndDTypeStrings(t *testing.T) {
	if Encoder.String() != "encoder" || Decoder.String() != "decoder" || EncoderDecoder.String() != "encoder-decoder" {
		t.Error("arch strings wrong")
	}
	if Arch(99).String() == "" || DType(99).String() == "" {
		t.Error("out-of-range strings empty")
	}
	if FP32.String() != "fp32" || FP16.String() != "fp16" || INT8.String() != "int8" {
		t.Error("dtype strings wrong")
	}
}

func TestModelSubsets(t *testing.T) {
	if n := len(InferenceModels()); n != 5 {
		t.Errorf("inference models = %d, want 5 (Figure 6)", n)
	}
}
