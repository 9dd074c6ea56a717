package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/report.sha256 from the current output")

const digestPath = "testdata/report.sha256"

var timingRe = regexp.MustCompile(`Done in \d+\.\d+s`)

// normalizeReport removes the two legitimately run-dependent parts of a
// report: the wall-clock timing line and the output-path lines (temp dirs
// differ per run). Everything else must be byte-identical.
func normalizeReport(s string) string {
	s = timingRe.ReplaceAllString(s, "Done in X.Xs")
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "written to ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.TrimRight(strings.Join(keep, "\n"), "\n")
}

func baseOpts(serveMode bool, dir string) runOpts {
	cfg := cluster.Production()
	cfg.BaseServers = 16
	cfg.Seed = 1
	if serveMode {
		cfg.Serve = &serve.Config{Router: "least-queue"}
	}
	return runOpts{
		policy: "polca", cfg: cfg, days: 1, seed: 1, t1: 0.80, t2: 0.89,
		csvPath: filepath.Join(dir, "util.csv"),
	}
}

// TestSpanTracingDoesNotPerturbResults is the zero-perturbation regression
// at the CLI level: the default `polca-sim -days 1 -servers 16` run — slot
// mode and serve mode — must produce an identical report and utilization
// CSV with span and event tracing (-spans, -trace) on and off.
func TestSpanTracingDoesNotPerturbResults(t *testing.T) {
	for _, mode := range []struct {
		name  string
		serve bool
	}{{"slot", false}, {"serve", true}} {
		t.Run(mode.name, func(t *testing.T) {
			d1, d2 := t.TempDir(), t.TempDir()
			plain, err := runOne(baseOpts(mode.serve, d1))
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, mode.name+"-polca", reportDigest(t, plain, filepath.Join(d1, "util.csv")))
			o := baseOpts(mode.serve, d2)
			o.obs = &obs.Observer{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(), Spans: obs.NewSpanTracer()}
			o.tracePath = filepath.Join(d2, "trace.jsonl")
			o.spansPath = filepath.Join(d2, "spans.jsonl")
			o.spansPerfettoPath = filepath.Join(d2, "spans.json")
			observed, err := runOne(o)
			if err != nil {
				t.Fatal(err)
			}

			if normalizeReport(plain) != normalizeReport(observed) {
				t.Errorf("report differs with span tracing on\n--- plain ---\n%s\n--- observed ---\n%s",
					normalizeReport(plain), normalizeReport(observed))
			}
			csv1, err := os.ReadFile(filepath.Join(d1, "util.csv"))
			if err != nil {
				t.Fatal(err)
			}
			csv2, err := os.ReadFile(filepath.Join(d2, "util.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if string(csv1) != string(csv2) {
				t.Error("utilization CSV differs with span tracing on")
			}

			f, err := os.Open(o.spansPath)
			if err != nil {
				t.Fatal(err)
			}
			var spans []obs.Span
			err = obs.ScanSpans(f, nil, func(sp obs.Span) error {
				spans = append(spans, sp)
				return nil
			})
			f.Close()
			if err != nil {
				t.Fatalf("span JSONL does not parse: %v", err)
			}
			roots := 0
			for _, sp := range spans {
				if sp.Kind == obs.SpanRequest {
					roots++
				}
			}
			if mode.serve && roots == 0 {
				t.Error("serve mode emitted no request spans")
			}
			if !mode.serve && len(spans) != 0 {
				t.Errorf("slot mode emitted %d spans, want 0", len(spans))
			}

			f, err = os.Open(o.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			err = obs.ScanEvents(f, nil, func(obs.Event) error {
				events++
				return nil
			})
			f.Close()
			if err != nil {
				t.Fatalf("event JSONL does not parse: %v", err)
			}
			if events == 0 {
				t.Error("no events traced")
			}
		})
	}
}

// TestPolicyReportDigests pins the report and utilization CSV of the
// one-day, 16-server slot row under each baseline policy by SHA-256.
// TestSpanTracingDoesNotPerturbResults pins the POLCA slot and serve runs
// the same way. After an intentional output change, regenerate with
//
//	go test ./cmd/polca-sim -update
func TestPolicyReportDigests(t *testing.T) {
	for _, p := range []string{"1tl", "1ta", "nocap"} {
		t.Run(p, func(t *testing.T) {
			o := baseOpts(false, t.TempDir())
			o.policy = p
			report, err := runOne(o)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "slot-"+p, reportDigest(t, report, o.csvPath))
		})
	}
}

// reportDigest hashes the normalized report and the data rows of the
// utilization CSV. The CSV's '#' provenance lines carry `git describe`,
// so they are skipped.
func reportDigest(t *testing.T, report, csvPath string) string {
	t.Helper()
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	io.WriteString(h, normalizeReport(report)+"\n")
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, "#") {
			io.WriteString(h, line)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares a run's digest with its line in digestPath or,
// under -update, rewrites that line.
func checkDigest(t *testing.T, name, got string) {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(digestPath)
	switch {
	case err == nil:
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 {
				want[fields[1]] = fields[0]
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	case !*update || !os.IsNotExist(err):
		t.Fatal(err)
	}
	if !*update {
		if want[name] == "" {
			t.Errorf("%s: no golden digest; regenerate with -update", name)
		} else if got != want[name] {
			t.Errorf("%s: output digest %s, golden %s", name, got, want[name])
		}
		return
	}
	want[name] = got
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s  %s\n", want[n], n)
	}
	if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyCSVPath pins the per-policy suffixing the span flags reuse.
func TestPolicyCSVPath(t *testing.T) {
	if got := policyCSVPath("out/spans.jsonl", "polca", true); got != "out/spans.polca.jsonl" {
		t.Errorf("multi-policy path = %q", got)
	}
	if got := policyCSVPath("spans.jsonl", "polca", false); got != "spans.jsonl" {
		t.Errorf("single-policy path = %q", got)
	}
	if got := policyCSVPath("", "polca", true); got != "" {
		t.Errorf("empty path = %q", got)
	}
}
