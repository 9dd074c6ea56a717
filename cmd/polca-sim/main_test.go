package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/serve"
)

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
// CSV with span tracing on and off.
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
			o := baseOpts(mode.serve, d2)
			o.obs = &obs.Observer{Metrics: obs.NewRegistry(), Spans: obs.NewSpanTracer()}
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
		})
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
