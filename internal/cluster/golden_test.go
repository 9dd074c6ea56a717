package cluster_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/scenario"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current output")

const goldenPath = "testdata/golden.sha256"

// goldenHorizon keeps every pinned row short enough that the whole table
// runs in a few seconds.
const goldenHorizon = 40 * time.Minute

// TestRowOutputsBitIdentical pins the simulated output of a handful of
// short rows by SHA-256 digest, so a refactor of the row (or of the models
// beneath it) that changes a single bit of any output fails here. Rows run
// through Run also pin their encoded event and decision streams; rows run
// through RunRequests pin Metrics only. After an intentional output change,
// regenerate with
//
//	go test ./internal/cluster -run TestRowOutputsBitIdentical -update
func TestRowOutputsBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) cluster.RowConfig
		// reqs, when set, materializes the trace the row replays through
		// RunRequests instead of sampling arrivals online through Run.
		reqs func(t *testing.T, cfg cluster.RowConfig, eng *sim.Engine) []workload.Request
	}{
		{name: "slot", cfg: func(*testing.T) cluster.RowConfig {
			cfg := testConfig()
			cfg.AddedFraction = 0.30
			return cfg
		}},
		{name: "slot-chaos", cfg: func(t *testing.T) cluster.RowConfig {
			cfg := hardenedConfig(t, "tdrop=0.05,tspike=0.02:0.5,crash=10m+45,oobburst=20m+3m,kill=1@15m+5m,slow=1:1.5,drain=2@25m+5m")
			// Slot mode ignores the watchdog drain; slot admission already
			// skips maintenance-draining nodes.
			cfg.WatchdogDrain = true
			return cfg
		}},
		{name: "serve", cfg: func(*testing.T) cluster.RowConfig {
			cfg := serveConfig()
			cfg.AddedFraction = 0.30
			return cfg
		}},
		{name: "serve-chaos", cfg: func(t *testing.T) cluster.RowConfig {
			return serveFTConfig(t, "tdrop=0.05,crash=10m+45,oobburst=20m+3m,kill=2@15m+5m,drain=2@25m+5m")
		}},
		{name: "serve-scenario-requests", cfg: func(t *testing.T) cluster.RowConfig {
			spec := mustBuiltin(t, "agentic-multiturn")
			cfg := serveConfig()
			cfg.AddedFraction = 0.30
			cfg.Serve = &serve.Config{Router: "session-affinity"}
			cfg.ServeRetries = 3
			cfg.ServeClassShed = true
			cfg.Classes = spec.Classes()
			cfg.ShedRanks = spec.ShedRanks()
			return cfg
		}, reqs: func(t *testing.T, cfg cluster.RowConfig, eng *sim.Engine) []workload.Request {
			spec := mustBuiltin(t, "agentic-multiturn")
			reqs, err := scenario.Generate(spec, goldenHorizon, float64(cfg.Servers())/float64(spec.Basis), eng.Rand)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}},
		{name: "slot-generated-requests", cfg: func(*testing.T) cluster.RowConfig {
			cfg := testConfig()
			cfg.AddedFraction = 0.30
			return cfg
		}, reqs: func(t *testing.T, cfg cluster.RowConfig, _ *sim.Engine) []workload.Request {
			reqs, err := cluster.GenerateRequests(cfg, flatPlan(cfg, 0.95, goldenHorizon), cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}},
	}
	got := map[string]string{}
	for _, c := range cases {
		cfg := c.cfg(t)
		o := &obs.Observer{
			Tracer:    obs.NewTracer(),
			Decisions: obs.NewDecisionRecorder(),
			Metrics:   obs.NewRegistry(),
			DB:        obs.NewTSDB(obs.TSDBConfig{Step: cfg.TelemetryInterval}),
		}
		set, err := obs.ParseRules(obs.DefaultRules)
		if err != nil {
			t.Fatal(err)
		}
		o.Rules = obs.NewRules(o.DB, set, o.Tracer)
		eng := sim.New(cfg.Seed)
		eng.SetObserver(o)
		ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
		row := cluster.MustRow(eng, cfg, ctrl)
		h := sha256.New()
		if c.reqs != nil {
			writeMetrics(h, row.RunRequests(c.reqs(t, cfg, eng), goldenHorizon))
		} else {
			writeMetrics(h, row.Run(flatPlan(cfg, 0.95, goldenHorizon)))
			if err := o.Tracer.WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			if err := o.Decisions.WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
		}
		got[c.name] = hex.EncodeToString(h.Sum(nil))
	}

	if *updateGolden {
		var b strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&b, "%s  %s\n", got[c.name], c.name)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, c := range cases {
		if want[c.name] == "" {
			t.Errorf("%s: no golden digest; regenerate with -update", c.name)
		} else if got[c.name] != want[c.name] {
			t.Errorf("%s: output digest %s, golden %s", c.name, got[c.name], want[c.name])
		}
	}
}

func mustBuiltin(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// writeMetrics renders every simulated output field of m (the echoed
// Config input is skipped) canonically: maps print in key order, floats in
// their shortest exact form, and quantile sketches as their centroids.
func writeMetrics(w io.Writer, m *cluster.Metrics) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Config" {
			continue
		}
		switch x := v.Field(i).Interface().(type) {
		case map[string]*obs.Digest:
			classes := make([]string, 0, len(x))
			for c := range x {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				means, weights := x[c].Centroids()
				fmt.Fprintf(w, "%s[%s] %v %v\n", name, c, means, weights)
			}
		default:
			fmt.Fprintf(w, "%s %v\n", name, x)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			out[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
