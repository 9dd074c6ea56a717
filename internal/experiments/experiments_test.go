package experiments

import (
	"strings"
	"testing"

	"polca/internal/workload"
)

func quick(t *testing.T, id string) Result {
	t.Helper()
	res, err := Run(id, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" {
		t.Fatalf("%s: empty rendering", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6",
		"fit", "fig13", "fig14", "fig15a", "fig15b", "fig16", "fig17", "fig18",
		"ext-dtype", "ext-phase", "ext-split", "ext-aware", "ext-swing",
		"ext-hysteresis", "ext-oob", "ext-batch", "ext-seeds", "ext-h100",
		"ext-train-oversub", "ext-ladder", "figfault", "figserve",
		"figservefault", "figscenario", "figregret",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", QuickOptions()); err == nil {
		t.Error("want error for unknown id")
	}
	if _, err := Title("fig99"); err == nil {
		t.Error("want error for unknown title")
	}
	if title, err := Title("fig4"); err != nil || !strings.Contains(title, "Figure 4") {
		t.Errorf("Title(fig4) = %q, %v", title, err)
	}
}

func TestFig3Shares(t *testing.T) {
	res := quick(t, "fig3")
	rows := res.Data.([]Fig3Row)
	var total float64
	var gpuShare, fanShare float64
	for _, r := range rows {
		total += r.Provisioned
		if r.Component == "gpus" {
			gpuShare = r.Share
		}
		if r.Component == "fans" {
			fanShare = r.Share
		}
	}
	if gpuShare < 0.45 || gpuShare > 0.55 {
		t.Errorf("GPU share = %v, want ~0.5", gpuShare)
	}
	if fanShare < 0.2 || fanShare > 0.3 {
		t.Errorf("fan share = %v, want ~0.25", fanShare)
	}
	if total > 6500 {
		t.Errorf("breakdown exceeds rated power: %v", total)
	}
}

func TestFig4Shapes(t *testing.T) {
	res := quick(t, "fig4")
	rows := res.Data.([]Fig4Row)
	byKey := map[string]Fig4Row{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Knob] = r
	}
	// Capping clips peaks without depressing troughs (Insight 3).
	for _, m := range []string{"GPT-NeoX-20B", "Flan-T5-XXL-11B", "RoBERTa-355M"} {
		base := byKey[m+"/No cap"]
		capped := byKey[m+"/325W cap"]
		locked := byKey[m+"/1.1GHz"]
		if capped.PeakTDP >= base.PeakTDP {
			t.Errorf("%s: cap did not clip peak", m)
		}
		if capped.TroughTDP < base.TroughTDP-0.02 {
			t.Errorf("%s: cap depressed trough (%v -> %v)", m, base.TroughTDP, capped.TroughTDP)
		}
		if locked.PeakTDP >= base.PeakTDP || locked.IterSec <= base.IterSec {
			t.Errorf("%s: lock should lower power and slow iterations", m)
		}
	}
	// Figure 4's trough ordering: RoBERTa ~0.75, NeoX ~0.5, FlanT5 ~0.2.
	if !(byKey["RoBERTa-355M/No cap"].TroughTDP > byKey["GPT-NeoX-20B/No cap"].TroughTDP &&
		byKey["GPT-NeoX-20B/No cap"].TroughTDP > byKey["Flan-T5-XXL-11B/No cap"].TroughTDP) {
		t.Error("trough depth ordering violated")
	}
	// Peaks reach TDP except RoBERTa (Insight 1).
	if byKey["RoBERTa-355M/No cap"].PeakTDP >= 1 {
		t.Error("RoBERTa should stay below TDP")
	}
	if byKey["GPT-NeoX-20B/No cap"].PeakTDP < 0.99 {
		t.Error("GPT-NeoX should reach TDP")
	}
	// Series present.
	for _, r := range rows {
		if r.Series.Len() == 0 {
			t.Fatalf("missing series for %s/%s", r.Model, r.Knob)
		}
	}
}

func TestFig5Superlinear(t *testing.T) {
	res := quick(t, "fig5")
	rows := res.Data.([]Fig5Row)
	for _, r := range rows {
		if !strings.Contains(r.Knob, "GHz") {
			continue
		}
		if r.PeakPowerReduction < r.PerfReduction-0.02 {
			t.Errorf("%s %s: power reduction %.3f below perf reduction %.3f",
				r.Model, r.Knob, r.PeakPowerReduction, r.PerfReduction)
		}
	}
}

func TestFig6TwoPhases(t *testing.T) {
	res := quick(t, "fig6")
	rows := res.Data.([]Fig6Row)
	if len(rows) != 5 {
		t.Fatalf("models = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.PromptPeak < 1.0 {
			t.Errorf("%s: prompt peak %.2f below TDP", r.Model, r.PromptPeak)
		}
		if r.TokenMean < 0.55 || r.TokenMean > 0.8 {
			t.Errorf("%s: token mean %.2f outside plateau band", r.Model, r.TokenMean)
		}
		if r.Series.Len() == 0 {
			t.Errorf("%s: no series", r.Model)
		}
	}
}

func TestFig7Correlations(t *testing.T) {
	res := quick(t, "fig7")
	data := res.Data.(Fig7Data)
	pSM, err := data.Prompt.At("power", "sm_activity")
	if err != nil {
		t.Fatal(err)
	}
	pMem, _ := data.Prompt.At("power", "mem_activity")
	if pSM < 0.5 {
		t.Errorf("prompt power~sm = %.2f, want strong", pSM)
	}
	if pMem > 0 {
		t.Errorf("prompt power~mem = %.2f, want negative", pMem)
	}
	tTensor, _ := data.Token.At("power", "tensor_activity")
	if tTensor > 0.6 {
		t.Errorf("token power~tensor = %.2f, want weak", tTensor)
	}
}

func TestFig8Trends(t *testing.T) {
	res := quick(t, "fig8")
	rows := res.Data.([]Fig8Row)
	type key struct{ model, dim string }
	series := map[key][]Fig8Row{}
	for _, r := range rows {
		k := key{r.Model, r.Dimension}
		series[k] = append(series[k], r)
	}
	for k, rs := range series {
		switch k.dim {
		case "input":
			if rs[len(rs)-1].PeakTDP <= rs[0].PeakTDP {
				t.Errorf("%s: peak power flat across inputs", k.model)
			}
		case "output":
			first, last := rs[0], rs[len(rs)-1]
			ratio := last.Latency / first.Latency
			want := float64(last.Value) / float64(first.Value)
			if ratio < want*0.7 || ratio > want*1.3 {
				t.Errorf("%s: latency ratio %.2f for output ratio %.2f (want ~linear)", k.model, ratio, want)
			}
			if last.PeakTDP != first.PeakTDP {
				t.Errorf("%s: output size changed peak power", k.model)
			}
		}
	}
}

func TestFig9ReactiveOvershoot(t *testing.T) {
	res := quick(t, "fig9")
	rows := res.Data.([]Fig9Row)
	byKnob := map[string]Fig9Row{}
	for _, r := range rows {
		byKnob[r.Knob] = r
	}
	// Reactive cap: prompt spikes still exceed the 325 W (0.81 TDP) level.
	if byKnob["325W cap"].PeakTDP <= 0.82 {
		t.Error("capped peak should overshoot (reactive limiter)")
	}
	// Frequency lock caps power from the start.
	if byKnob["1.1GHz"].PeakTDP >= byKnob["No cap"].PeakTDP {
		t.Error("lock should reduce the recorded peak")
	}
	if byKnob["1.1GHz"].LatencySec <= byKnob["No cap"].LatencySec {
		t.Error("lock should slow execution")
	}
}

func TestFig10Sweep(t *testing.T) {
	res := quick(t, "fig10")
	rows := res.Data.([]Fig10Row)
	// At 1100 MHz every subject reclaims far more power than it loses.
	n := 0
	for _, r := range rows {
		if r.ClockMHz != 1100 {
			continue
		}
		n++
		if r.PeakPowerReduction < 0.10 {
			t.Errorf("%s: only %.3f power reclaimed at 1.1GHz", r.Subject, r.PeakPowerReduction)
		}
		if r.PerfReduction > 0.12 {
			t.Errorf("%s: %.3f perf lost at 1.1GHz, want small", r.Subject, r.PerfReduction)
		}
	}
	if n < 9 { // 5 models + 4 BLOOM configs
		t.Errorf("sweep subjects at 1100 MHz = %d, want 9", n)
	}
}

func TestFig11Fleet(t *testing.T) {
	res := quick(t, "fig11")
	data := res.Data.(Fig11Data)
	if data.MeanGPUShare < 0.5 || data.MeanGPUShare > 0.7 {
		t.Errorf("GPU share of server power = %.2f, want ~0.6 (Figure 11)", data.MeanGPUShare)
	}
	if data.Correlation < 0.9 {
		t.Errorf("corr(GPU peak, server peak) = %.2f, want high", data.Correlation)
	}
	// GPU peak range narrower than server peak range relative to scale is a
	// paper observation; at least require plausible normalized values.
	for _, r := range data.Rows {
		if r.GPUPeakTDP < 0.5 || r.GPUPeakTDP > 1.3 {
			t.Errorf("server %d GPU peak = %.2f, implausible", r.Server, r.GPUPeakTDP)
		}
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab3", "tab5", "tab6"} {
		res := quick(t, id)
		if len(res.Text) < 50 {
			t.Errorf("%s: suspiciously short rendering", id)
		}
	}
}

func TestTab4ClusterContrast(t *testing.T) {
	res := quick(t, "tab4")
	data := res.Data.(Table4Data)
	if data.Training.PeakUtilization <= data.Inference.PeakUtilization {
		t.Error("training peak utilization should exceed inference (Table 4)")
	}
	if data.Training.MaxSpike2s < 2*data.Inference.MaxSpike2s {
		t.Errorf("training 2s spike %.3f should dwarf inference %.3f",
			data.Training.MaxSpike2s, data.Inference.MaxSpike2s)
	}
	trainHeadroom := 1 - data.Training.PeakUtilization
	inferHeadroom := 1 - data.Inference.PeakUtilization
	if inferHeadroom < 2*trainHeadroom {
		t.Errorf("inference headroom %.3f should dwarf training %.3f (Insight 9)",
			inferHeadroom, trainHeadroom)
	}
}

func TestFitMAPE(t *testing.T) {
	res := quick(t, "fit")
	data := res.Data.(FitData)
	if data.SimMAPE > 0.05 {
		t.Errorf("end-to-end MAPE = %.4f, want small (paper: <= 0.03 at full scale)", data.SimMAPE)
	}
	if data.ModelMAPE > 0.03 {
		t.Errorf("analytic MAPE = %.4f", data.ModelMAPE)
	}
	if data.Trained.Validate() != nil {
		t.Error("trained thresholds invalid")
	}
}

func TestClusterExperimentsQuick(t *testing.T) {
	// Quick-mode smoke + weak invariants; paper-scale assertions live in
	// EXPERIMENTS.md generated from default options.
	res := quick(t, "fig13")
	d13 := res.Data.(Fig13Data)
	if len(d13.Points) == 0 {
		t.Fatal("no fig13 points")
	}
	for _, p := range d13.Points {
		for _, pri := range []workload.Priority{workload.Low, workload.High} {
			if p.NormP50[pri] <= 0 || p.NormP99[pri] <= 0 {
				t.Fatalf("non-positive normalized latency at %+v", p)
			}
		}
	}

	res = quick(t, "fig14")
	d14 := res.Data.([]Fig14Point)
	if d14[0].NormThroughput[workload.Low] != 1 {
		t.Error("baseline throughput not normalized to 1")
	}

	res = quick(t, "fig15a")
	d15a := res.Data.([]Fig15aPoint)
	if len(d15a) < 2 {
		t.Fatal("fig15a too few points")
	}

	res = quick(t, "fig15b")
	d15b := res.Data.([]Fig15bPoint)
	if len(d15b) < 2 {
		t.Fatal("fig15b too few points")
	}

	res = quick(t, "fig16")
	d16 := res.Data.(Fig16Data)
	if d16.Oversub.Mean() <= d16.Default.Mean() {
		t.Error("+30% servers should raise utilization (Figure 16)")
	}
	if d16.Default5m.Peak() > d16.DefaultPeak2s {
		t.Error("5-min averaging should not raise the peak")
	}

	res = quick(t, "fig17")
	d17 := res.Data.([]Fig17Row)
	if len(d17) != 8 {
		t.Fatalf("fig17 rows = %d, want 8 (4 policies x 2 intensities)", len(d17))
	}
	// POLCA at default intensity is the normalization reference.
	if d17[0].Policy != "POLCA" || d17[0].NormP50[workload.Low] != 1 {
		t.Error("fig17 normalization reference wrong")
	}

	res = quick(t, "fig18")
	d18 := res.Data.([]Fig17Row)
	// +5% intensity can only increase brake pressure for a given policy.
	byPolicy := map[string][2]int{}
	for _, r := range d18 {
		v := byPolicy[r.Policy]
		if r.Intensity > 1 {
			v[1] = r.Brakes
		} else {
			v[0] = r.Brakes
		}
		byPolicy[r.Policy] = v
	}
	for p, v := range byPolicy {
		if v[1] < v[0] {
			t.Errorf("%s: +5%% intensity reduced brakes (%d -> %d)", p, v[0], v[1])
		}
	}
}

// TestFigRegretQuick pins the extension's invariants: the recorded day
// replays against its own configuration with zero divergence (the log is
// complete), no-cap genuinely diverges from a capping day and the
// divergence is priced, and every registered router policy covers every
// recorded pick.
func TestFigRegretQuick(t *testing.T) {
	res := quick(t, "figregret")
	data := res.Data.(FigRegretData)
	if data.Ticks == 0 || data.Routes == 0 {
		t.Fatalf("recorded day holds %d ticks, %d routes; the replay is vacuous", data.Ticks, data.Routes)
	}
	if data.SelfDiverged != 0 || data.RouteSelfDiverged != 0 {
		t.Fatalf("self replay diverged (%d ticks, %d routes): the log does not carry the policy's full input",
			data.SelfDiverged, data.RouteSelfDiverged)
	}
	byPolicy := map[string]FigRegretPolicyRow{}
	for _, r := range data.Policies {
		byPolicy[r.Policy] = r
		if r.Ticks != data.Ticks {
			t.Errorf("%s evaluated %d/%d ticks", r.Policy, r.Ticks, data.Ticks)
		}
	}
	if byPolicy["deployed"].Diverged != 0 {
		t.Error("deployed alternate diverged from its own log")
	}
	nocap := byPolicy["nocap"]
	if nocap.Diverged == 0 {
		t.Error("no-cap never diverged from a capping day")
	}
	if nocap.HeadroomKJ+nocap.SavedKJ == 0 {
		t.Error("no-cap divergence carries no priced regret")
	}
	if len(data.Routers) == 0 {
		t.Fatal("no router rows")
	}
	for _, r := range data.Routers {
		if r.Routes != data.Routes {
			t.Errorf("router %s covered %d/%d picks", r.Router, r.Routes, data.Routes)
		}
		if r.Router == "round-robin" && r.Diverged != 0 {
			t.Errorf("deployed router diverged on %d picks", r.Diverged)
		}
	}
}

// TestRunFig6Deterministic runs fig6 twice in one process and requires the
// same rendering. TestRunAllParallelMatchesSerial covers every experiment.
func TestRunFig6Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6 twice")
	}
	a, err := Run("fig6", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig6", QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Error("experiment not deterministic")
	}
}
