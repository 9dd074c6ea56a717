package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAlertsMode drives the CLI end to end on a handcrafted event trace
// and checks the reconstructed per-alert summary: episode pairing, total
// active time, longest episode, and provenance echo.
func TestAlertsMode(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"-alerts", "-top", "2", "testdata/alerts.jsonl"}, &out, &errw); code != 0 {
		t.Fatalf("cli exited %d: %s", code, errw.String())
	}
	got := out.String()
	for _, w := range []string{
		"# polca-sim event trace",
		"Alert timeline: 6 events, 3 episodes, 2 rules",
		"breaker-breach", "row.util > 1",
		"breaker-near", "row.power > 0.97*row.breaker for 30s",
		"Top 2 longest episodes:",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("output missing %q:\n%s", w, got)
		}
	}
	// breaker-breach: two episodes of 6s and 2s → 2 fires, 8s active, 6s
	// longest. breaker-near: one 30s episode.
	for _, row := range []struct{ name, fires, active, longest string }{
		{"breaker-breach", "2", "8s", "6s"},
		{"breaker-near", "1", "30s", "30s"},
	} {
		line := ""
		for _, l := range strings.Split(got, "\n") {
			if strings.HasPrefix(l, row.name) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("no summary row for %s:\n%s", row.name, got)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[1] != row.fires || fields[2] != row.active || fields[3] != row.longest {
			t.Errorf("%s row = %q, want fires=%s active=%s longest=%s",
				row.name, line, row.fires, row.active, row.longest)
		}
	}
	// The longest-episode table is duration-sorted: breaker-near's 30s
	// episode first.
	topIdx := strings.Index(got, "Top 2 longest episodes:")
	nearIdx := strings.Index(got[topIdx:], "breaker-near")
	breachIdx := strings.Index(got[topIdx:], "breaker-breach")
	if nearIdx < 0 || breachIdx < 0 || nearIdx > breachIdx {
		t.Errorf("longest-episode table not duration-sorted:\n%s", got[topIdx:])
	}
}

// eventsHeader is the event log's header line.
const eventsHeader = `{"schema":"polca-events/v1"}` + "\n"

// TestAlertsModeRejectsSpanInput: pointing -alerts at a span file is an
// input error, not an empty report — the scanner rejects the span log's
// header with a schema error and its line number, and a genuine event
// trace without any alerts gets its own distinct error.
func TestAlertsModeRejectsSpanInput(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli([]string{"-alerts", "testdata/spans.jsonl"}, &out, &errw); code != 1 {
		t.Fatalf("cli exited %d, want 1; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "schema") || !strings.Contains(errw.String(), "line") {
		t.Errorf("stderr = %q, want a schema error with a line number", errw.String())
	}
	noAlerts := strings.NewReader(eventsHeader + `{"seq":1,"t_us":2000000,"kind":"brake.engage","value":0.99}` + "\n")
	if _, err := AnalyzeAlerts(noAlerts, 5); err == nil || !strings.Contains(err.Error(), "no alert events") {
		t.Errorf("err = %v, want mention of missing alert events", err)
	}
}

// TestAlertsModeUnpairedResolve: a resolve with no prior fire is a
// malformed trace and must be reported with its line number.
func TestAlertsModeUnpairedResolve(t *testing.T) {
	in := strings.NewReader(eventsHeader + `{"seq":1,"t_us":1000000,"kind":"alert.resolve","value":1,"reason":"x","label":"ghost"}`)
	if _, err := AnalyzeAlerts(in, 5); err == nil || !strings.Contains(err.Error(), "resolved without firing") {
		t.Errorf("err = %v, want unpaired-resolve error", err)
	}
}
