package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
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

// TestRunAllParallelMatchesSerial compares the full quick suite, stream and
// structured results, between one worker and four, and pins the
// one-worker pass by SHA-256: each experiment's Text and its Data
// marshalled as polca-experiments -out writes them, so a change that moves
// one bit of any quick-pass output fails here. After an intentional output
// change, regenerate with
//
//	go test ./internal/experiments -run TestRunAllParallelMatchesSerial -update
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice with a cold cache")
	}
	resetEvalCache()
	so := QuickOptions()
	so.Parallel = 1
	var serialStream strings.Builder
	serial, err := RunAll(so, &serialStream)
	if err != nil {
		t.Fatal(err)
	}
	checkQuickGolden(t, serial)

	resetEvalCache()
	po := QuickOptions()
	po.Parallel = 4
	var parStream strings.Builder
	par, err := RunAll(po, &parStream)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].ID != par[i].ID {
			t.Errorf("result %d: order differs (%s vs %s)", i, serial[i].ID, par[i].ID)
		}
		if serial[i].Text != par[i].Text {
			t.Errorf("%s: parallel Result.Text differs from serial", serial[i].ID)
		}
	}
	if serialStream.String() != parStream.String() {
		t.Error("RunAll stream not byte-identical between serial and parallel")
	}
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
