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
// one of them from the -v log and /progress. After an intentional output
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
		var reports []string
		seen := map[string]bool{}
		o.Progress = obs.NewProgress(0)
		o.Progress.OnDone = func(label string, _, _ int, cached bool, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if seen[label] && !cached {
				reports = append(reports, label)
			}
			seen[label] = true
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
