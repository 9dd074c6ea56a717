package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.sha256 from the current output")

const quickGoldenPath = "testdata/quick.sha256"

// TestParallelMatchesSerial runs sweep experiments with a cold cache on one
// worker, which simulates the specs one at a time in order, and again on
// four, and requires byte-identical renderings: every simulation owns a
// private engine seeded from Options.Seed, so execution order must not
// leak into results.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig13", "fig17"} {
		resetEvalCache()
		so := QuickOptions()
		so.Parallel = 1
		serial, err := Run(id, so)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}

		resetEvalCache()
		po := QuickOptions()
		po.Parallel = 4
		par, err := Run(id, po)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if serial.Text != par.Text {
			t.Errorf("%s: parallel rendering differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s", id, serial.Text, par.Text)
		}
	}
}

// unsharedRun is productionRun with nothing shared: a reference series of
// its own, and the fitted plan's FrontDoorGap drawing on the row's own
// arrival stream.
func unsharedRun(cfg cluster.RowConfig, horizon time.Duration) (*sim.Engine, trace.RatePlan, error) {
	plan, err := cluster.ProductionArrivals(cfg, horizon, sim.New(cfg.Seed).Rand("ref"))
	return sim.New(cfg.Seed), plan, err
}

// runUnshared is runRowSpec on unsharedRun.
func runUnshared(o Options, s rowSpec) (*cluster.Metrics, error) {
	productionRun = unsharedRun
	defer func() { productionRun = sharedProductionRun }()
	return runRowSpec(o, s)
}

// TestSharedGapsMatchUnshared runs rows on the pass's shared reference
// series and gap memo and requires the metrics of the same rows on an
// unshared plan, bit for bit. Two seeds share one process. At each, a
// one-day row runs before and after a two-day one, so the memo is both
// extended and re-read, and a hardened row with faults reads it too; so
// does a serve row at the first seed. runRowSpec runs outside the sweep
// cache, so LatencySec is still in completion order.
func TestSharedGapsMatchUnshared(t *testing.T) {
	resetEvalCache()
	short := rowSpec{policy: "polca", added: 0.3, intensity: 1, days: 1}
	long := short
	long.days = 2
	hardened := short
	hardened.hardened, hardened.faults = true, "tdrop=0.1,crash=6h+45,kill=2@8h+1h"
	served := rowSpec{policy: "polca", intensity: 1, days: 1, serveRouter: "least-queue"}
	o := QuickOptions().normalize()
	for i, seed := range []int64{1, 2} {
		o.Seed = seed
		specs := []rowSpec{short, long, short, hardened}
		if i == 0 {
			// A serve row costs more than the rest together; one will do.
			specs = append(specs, served)
		}
		for _, s := range specs {
			s = s.canonical()
			shared, err := runRowSpec(o, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := runUnshared(o, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared, want) {
				t.Errorf("seed %d, %s: metrics on the shared gaps differ from an unshared plan's (arrived %v, want %v)",
					seed, specLabel(s), shared.Arrived, want.Arrived)
			}
		}
	}
}

// TestGapMemoConcurrentReaders reads one seed's gap memo through four
// plans' cursors on four goroutines at once, across several blocks. Each
// must read FrontDoorGap's draws on the seed's arrival stream in order;
// under -race, extending the memo must not race with reading it.
func TestGapMemoConcurrentReaders(t *testing.T) {
	resetEvalCache()
	cfg := cluster.Production()
	cfg.Seed = 5
	rng := sim.New(cfg.Seed).Rand("arrivals")
	want := make([]float64, 3*gapBlock+17)
	for i := range want {
		want[i] = trace.FrontDoorGap(rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		_, plan, err := sharedProductionRun(cfg, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range want {
				if got := plan.Gap(nil); got != g {
					t.Errorf("reader %d: gap %d = %v, want %v", w, i, got, g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSimulateRowsDedup hands the pool eight copies of one spec; the
// singleflight cache must run the simulation once and share the pointer.
func TestSimulateRowsDedup(t *testing.T) {
	resetEvalCache()
	o := QuickOptions().normalize()
	o.Parallel = 8
	spec := rowSpec{policy: "nocap", added: 0, intensity: 1, days: 1}
	specs := make([]rowSpec, 8)
	for i := range specs {
		specs[i] = spec
	}
	ms, err := simulateRows(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m == nil {
			t.Fatalf("specs[%d] returned nil metrics", i)
		}
		if m != ms[0] {
			t.Errorf("specs[%d] not deduplicated: distinct metrics for identical specs", i)
		}
	}
}

// TestRunAllParallelMatchesSerial runs the full quick suite with a cold
// cache on one worker, then two, then four. It pins the one-worker pass by
// SHA-256: each experiment's Text and its Data marshalled as
// polca-experiments -out writes them, so a change that moves one bit of
// any quick-pass output fails here. The other passes must match it, stream
// and structured results. Every pass must keep at most Parallel row
// simulations in flight, and the one-worker pass must start the
// experiments in registration order and report no grid label twice unless
// the second report is a cache hit: a label two distinct rows share hides
// one of them from the -v log and /progress. Each point must report
// simulated time unless it was a cache hit. After an intentional output
// change, regenerate with
//
//	go test ./internal/experiments -run TestRunAllParallelMatchesSerial -update
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite three times with a cold cache")
	}
	var serial []Result
	var serialStream string
	peak := countSimulations(t)
	started := recordStarts(t)
	for _, workers := range []int{1, 2, 4} {
		resetEvalCache()
		peak.Store(0)
		started.ids = nil
		o := QuickOptions()
		o.Parallel = workers
		var mu sync.Mutex
		var reports, simReports []string
		seen := map[string]bool{}
		o.Progress = obs.NewProgress(0)
		o.Progress.OnDone = func(label string, _, _ int, cached bool, _, simulated time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if seen[label] && !cached {
				reports = append(reports, label)
			}
			seen[label] = true
			if cached != (simulated == 0) {
				simReports = append(simReports, fmt.Sprintf("%s: cached %v, simulated %v", label, cached, simulated))
			}
		}
		var stream strings.Builder
		res, err := RunAll(o, &stream)
		if err != nil {
			t.Fatal(err)
		}
		got := peak.Load()
		t.Logf("parallel %d: at most %d row simulations in flight", workers, got)
		if got > int64(workers) {
			t.Errorf("parallel %d: %d row simulations in flight at once", workers, got)
		}
		for _, r := range simReports {
			t.Errorf("parallel %d: %s; a point simulates its horizon unless cached", workers, r)
		}
		if workers == 1 {
			if want := IDs(); !reflect.DeepEqual(started.ids, want) {
				t.Errorf("one worker started experiments in order %v, want registration order %v", started.ids, want)
			}
			for _, label := range reports {
				t.Errorf("grid label %q reported twice without a cache hit", label)
			}
			checkQuickGolden(t, res)
			serial, serialStream = res, stream.String()
			continue
		}
		if len(serial) != len(res) {
			t.Fatalf("parallel %d: result counts differ: %d vs %d", workers, len(serial), len(res))
		}
		for i := range serial {
			if serial[i].ID != res[i].ID {
				t.Errorf("parallel %d: result %d: order differs (%s vs %s)", workers, i, serial[i].ID, res[i].ID)
			}
			if serial[i].Text != res[i].Text {
				t.Errorf("parallel %d: %s: Result.Text differs from serial", workers, serial[i].ID)
			}
		}
		if serialStream != stream.String() {
			t.Errorf("parallel %d: RunAll stream not byte-identical to serial", workers)
		}
	}
}

// starts is the experiment IDs RunAll has started, in order.
type starts struct {
	mu  sync.Mutex
	ids []string
}

// recordStarts wraps runExperiment for the rest of the test and records
// the experiments RunAll starts.
func recordStarts(t *testing.T) *starts {
	t.Helper()
	s := &starts{}
	run := runExperiment
	runExperiment = func(id string, o Options) (Result, error) {
		s.mu.Lock()
		s.ids = append(s.ids, id)
		s.mu.Unlock()
		return run(id, o)
	}
	t.Cleanup(func() { runExperiment = run })
	return s
}

// countSimulations wraps runRow for the rest of the test and returns the
// peak number of row simulations it has seen in flight at once.
func countSimulations(t *testing.T) *atomic.Int64 {
	t.Helper()
	var inFlight, peak atomic.Int64
	run := runRow
	runRow = func(o Options, s rowSpec) (*cluster.Metrics, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return run(o, s)
	}
	t.Cleanup(func() { runRow = run })
	return &peak
}

// checkQuickGolden compares the digests of results' -out files, named as
// polca-experiments writes them (<id>.txt and <id>.json), with
// testdata/quick.sha256, whose lines read like sha256sum's.
func checkQuickGolden(t *testing.T, results []Result) {
	t.Helper()
	var names, got []string
	for _, res := range results {
		blob, err := json.MarshalIndent(map[string]any{
			"id":    res.ID,
			"title": res.Title,
			"data":  res.Data,
		}, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		for _, f := range []struct {
			name string
			body []byte
		}{{res.ID + ".txt", []byte(res.Text)}, {res.ID + ".json", blob}} {
			sum := sha256.Sum256(f.body)
			names = append(names, f.name)
			got = append(got, hex.EncodeToString(sum[:]))
		}
	}

	if *updateGolden {
		var b strings.Builder
		for i := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[i], names[i])
		}
		if err := os.WriteFile(quickGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(quickGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[1]] = fields[0]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(names) {
		t.Errorf("golden has %d digests, quick pass wrote %d files", len(want), len(names))
	}
	for i, name := range names {
		if want[name] == "" {
			t.Errorf("%s: no golden digest; regenerate with -update", name)
		} else if got[i] != want[name] {
			t.Errorf("%s: output digest %s, golden %s", name, got[i], want[name])
		}
	}
}
