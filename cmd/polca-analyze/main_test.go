package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"polca/internal/obs"
	"polca/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// TestGolden runs the full CLI on the committed fixture (a deterministic
// serving run under KV pressure and clock capping — see testdata/gen.go)
// and compares against the golden report byte for byte. -no-provenance
// keeps the output stable: the analyzer's own header carries a git stamp
// that varies by build.
func TestGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"-top", "5", "-no-provenance", "testdata/spans.jsonl"}, &out, &errw); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errw.String())
	}
	if *update {
		if err := os.WriteFile("testdata/golden.txt", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden.txt updated")
		return
	}
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from golden (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestReproducesReportPercentiles is the acceptance criterion: the p99 TTFT
// the simulator's report derives from its streaming sketch must be
// recomputable from the span JSONL alone. On the fixture every class holds
// few requests, so the sketch still stores singletons and the two numbers
// agree exactly.
func TestReproducesReportPercentiles(t *testing.T) {
	f, err := os.Open("testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []obs.Span
	if err := obs.ScanSpans(f, nil, func(sp obs.Span) error {
		spans = append(spans, sp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Only each request's final attempt contributes to the class table —
	// the analyzer folds superseded failover roots into attempt counters.
	finalRetry := map[int64]int32{}
	for _, sp := range spans {
		if sp.Kind == obs.SpanRequest && sp.Retry >= finalRetry[sp.Req] {
			finalRetry[sp.Req] = sp.Retry
		}
	}
	ttftByClass := map[string][]float64{}
	digests := map[string]*obs.Digest{}
	for _, sp := range spans {
		if sp.Kind != obs.SpanRequest || sp.TTFTSec < 0 || sp.Retry != finalRetry[sp.Req] {
			continue
		}
		ttftByClass[sp.Class] = append(ttftByClass[sp.Class], sp.TTFTSec)
		d := digests[sp.Class]
		if d == nil {
			d = obs.NewDigest(obs.DefaultCompression)
			digests[sp.Class] = d
		}
		d.Add(sp.TTFTSec)
	}
	if len(ttftByClass) < 2 {
		t.Fatalf("fixture has %d classes, want several", len(ttftByClass))
	}

	var outBuf, errBuf bytes.Buffer
	if code := cli([]string{"testdata/spans.jsonl"}, &outBuf, &errBuf); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errBuf.String())
	}
	report := outBuf.String()
	for class, xs := range ttftByClass {
		exact := stats.Percentile(xs, 99)
		sketch := digests[class].Percentile(99)
		if exact != sketch {
			t.Errorf("%s: sketch p99 %.6f != exact %.6f on a singleton-resolution sample", class, sketch, exact)
		}
		cell := fmt.Sprintf("%9.3f", exact)
		found := false
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, class) && strings.Contains(line, cell) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: report does not show the exact p99 TTFT %s", class, strings.TrimSpace(cell))
		}
	}
}

// TestAnalyzeConservesFixtureEnergy cross-checks the fixture itself: child
// span energies sum to each root, and the analyzer's overview total equals
// the sum over roots.
func TestAnalyzeConservesFixtureEnergy(t *testing.T) {
	f, err := os.Open("testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []obs.Span
	if err := obs.ScanSpans(f, nil, func(sp obs.Span) error {
		spans = append(spans, sp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Conservation holds per admission attempt: every span carries the
	// attempt's Retry, so a retried request's attempts reconcile
	// independently, and the report total covers all of them.
	type attempt struct {
		req   int64
		retry int32
	}
	rootJ := map[attempt]float64{}
	childJ := map[attempt]float64{}
	for _, sp := range spans {
		k := attempt{sp.Req, sp.Retry}
		if sp.Kind == obs.SpanRequest {
			rootJ[k] = sp.EnergyJ
		} else {
			childJ[k] += sp.EnergyJ
		}
	}
	var total float64
	for k, j := range rootJ {
		total += j
		if d := childJ[k] - j; d > 1e-6 || d < -1e-6 {
			t.Errorf("req %d attempt %d: children sum %.3f J, root %.3f J", k.req, k.retry, childJ[k], j)
		}
	}
	var out, errw bytes.Buffer
	if code := cli([]string{"testdata/spans.jsonl"}, &out, &errw); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errw.String())
	}
	wantLine := fmt.Sprintf("Energy: %.2f kJ", total/1e3)
	if !strings.Contains(out.String(), wantLine) {
		t.Errorf("overview missing %q", wantLine)
	}
}

// TestProvenanceHeader: by default the report opens with the analyzer's
// own `# key: value` lines (tool, input, mode, parameters) above the
// echoed input headers, and -no-provenance drops exactly those lines.
func TestProvenanceHeader(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"-top", "5", "testdata/spans.jsonl"}, &out, &errw); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errw.String())
	}
	got := out.String()
	for _, w := range []string{
		"# tool: polca-analyze",
		"# input: testdata/spans.jsonl",
		"# mode: spans",
		"# top: 5",
		"# ttft-slo: 15s",
		"# git: ",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("default output missing provenance line %q", w)
		}
	}
	var bare, errw2 bytes.Buffer
	if code := cli([]string{"-top", "5", "-no-provenance", "testdata/spans.jsonl"}, &bare, &errw2); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errw2.String())
	}
	if strings.Contains(bare.String(), "# tool: polca-analyze") {
		t.Error("-no-provenance did not suppress the analyzer header")
	}
	if !strings.HasSuffix(got, bare.String()) {
		t.Error("provenance header is not a pure prefix: report body differs with the flag")
	}
}

func TestCLIErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{}, &out, &errw); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := cli([]string{"testdata/definitely-missing.jsonl"}, &out, &errw); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	bad := strings.NewReader(spansHeader + `{"seq":1,"req":1,"id":1,"kind":"zebra","start_us":0,"end_us":1}` + "\n")
	if _, err := Analyze(bad, 5); err == nil {
		t.Error("Analyze accepted an unknown span kind")
	}
	if _, err := Analyze(strings.NewReader(""), 5); err == nil {
		t.Error("Analyze accepted an empty trace")
	}
}

// spansHeader is the span log's header line.
const spansHeader = `{"schema":"polca-spans/v1"}` + "\n"

// writeSyntheticSpans streams nReq synthetic request trees (5 spans each:
// root, queue, prefill, decode, preempt) as a span log in WriteJSONL order
// — root first — to w, without materializing them.
func writeSyntheticSpans(w io.Writer, nReq int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# polca-sim synthetic memory fixture")
	bw.WriteString(spansHeader)
	for i := 0; i < nReq; i++ {
		base := int64(i) * 1_000_000 // µs
		class := []string{"chat", "code", "summarize"}[i%3]
		seq := 5*i + 1
		if _, err := fmt.Fprintf(bw,
			`{"seq":%d,"req":%d,"id":1,"kind":"request","start_us":%d,"end_us":%d,"server":%d,"class":"%s","tokens":600,"preempts":1,"energy_j":%g,"cap_s":0.02,"ttft_s":0.8}`+"\n",
			seq, i, base, base+30_000_000, i%16, class, 100.0+float64(i%50)); err != nil {
			return err
		}
		fmt.Fprintf(bw, `{"seq":%d,"req":%d,"id":2,"parent":1,"kind":"queue","start_us":%d,"end_us":%d,"class":"%s"}`+"\n",
			seq+1, i, base, base+300_000, class)
		fmt.Fprintf(bw, `{"seq":%d,"req":%d,"id":3,"parent":1,"kind":"prefill","start_us":%d,"end_us":%d,"class":"%s","tokens":512}`+"\n",
			seq+2, i, base+300_000, base+500_000, class)
		fmt.Fprintf(bw, `{"seq":%d,"req":%d,"id":4,"parent":1,"kind":"decode","start_us":%d,"end_us":%d,"class":"%s","tokens":600,"energy_j":%g}`+"\n",
			seq+3, i, base+500_000, base+30_000_000, class, 90.0+float64(i%50))
		if _, err := fmt.Fprintf(bw, `{"seq":%d,"req":%d,"id":5,"parent":1,"kind":"preempt","start_us":%d,"end_us":%d,"class":"%s","tokens":128}`+"\n",
			seq+4, i, base+700_000, base+700_000, class); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestAnalyzeStreamsInFixedMemory is the acceptance test for the streaming
// input path: 40k requests × 5 spans = 200k spans arrive through a pipe (no
// backing buffer to mistake for the analyzer's own memory), and the heap
// high-water mark during Analyze must stay under a budget far below what
// materializing the file plus a []obs.Span (the old two-scan path) costs.
func TestAnalyzeStreamsInFixedMemory(t *testing.T) {
	const nReq = 40_000
	const budget = 96 << 20 // bytes of peak HeapAlloc

	runtime.GC()
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(writeSyntheticSpans(pw, nReq)) }()

	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-done:
			default:
				time.Sleep(200 * time.Microsecond)
				continue
			}
			return
		}
	}()

	report, err := Analyze(pr, 10)
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, fmt.Sprintf("Requests: %d (%d completed", nReq, nReq)) {
		t.Errorf("report did not fold all %d requests:\n%s", nReq, report[:200])
	}
	t.Logf("peak HeapAlloc %.1f MiB over %d spans (budget %d MiB)",
		float64(peak)/(1<<20), nReq*5, budget>>20)
	if peak > budget {
		t.Errorf("peak HeapAlloc %d MiB exceeds the %d MiB streaming budget", peak>>20, budget>>20)
	}
}

// TestFoldOutOfOrderAndErrors exercises the incremental folder's ordering
// contract and failure paths: a root-first log folds, a child that arrives
// before any root of its request is an error, and so is a duplicated root.
func TestFoldOutOfOrderAndErrors(t *testing.T) {
	root := `"req":3,"id":1,"kind":"request","start_us":0,"end_us":2000000,"class":"chat","tokens":10,"energy_j":5,"ttft_s":1.0}`
	queue := `"req":3,"id":2,"kind":"queue","start_us":0,"end_us":400000}`
	prefill := `"req":3,"id":3,"kind":"prefill","start_us":400000,"end_us":900000,"tokens":64}`
	preempt := `"req":3,"id":4,"kind":"preempt","start_us":500000,"end_us":500000}`
	log := func(records ...string) io.Reader {
		var b strings.Builder
		b.WriteString(spansHeader)
		for i, rec := range records {
			fmt.Fprintf(&b, `{"seq":%d,%s`+"\n", i+1, rec)
		}
		return strings.NewReader(b.String())
	}

	report, err := Analyze(log(root, queue, prefill, preempt), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "Requests: 1 (1 completed") {
		t.Errorf("root-first log did not fold one request:\n%s", report)
	}
	for _, in := range []io.Reader{log(preempt, prefill, queue, root), log(queue)} {
		if _, err := Analyze(in, 5); err == nil || !strings.Contains(err.Error(), "spans line 2: span 3/") ||
			!strings.Contains(err.Error(), "no request root before it") {
			t.Errorf("child before its root: err = %v", err)
		}
	}
	if _, err := Analyze(log(root, root), 5); err == nil ||
		!strings.Contains(err.Error(), "two root spans") {
		t.Errorf("duplicate root err = %v", err)
	}
}
