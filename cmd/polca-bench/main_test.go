package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: polca
BenchmarkEngine-4   	85639108	        13.53 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeDay-4 	       3	 972072031 ns/op	         0.972 wall_s/day	 1966133 events/s	42528192 B/op	   34490 allocs/op
PASS
ok  	polca	4.2s
pkg: polca/internal/serve
BenchmarkScheduler-4	 2000000	       594.8 ns/op	       0 B/op	       0 allocs/op
PASS
`

func parseSample(t *testing.T) *Artifact {
	t.Helper()
	art, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func TestParseBenchOutput(t *testing.T) {
	art := parseSample(t)
	if art.Schema != schemaV1 || art.Goos != "linux" || art.Goarch != "amd64" {
		t.Errorf("header = %q/%q/%q", art.Schema, art.Goos, art.Goarch)
	}
	if len(art.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(art.Benchmarks))
	}
	// Sorted by name; the -P GOMAXPROCS suffix is stripped.
	byName := map[string]Benchmark{}
	for _, b := range art.Benchmarks {
		byName[b.Name] = b
	}
	eng := byName["BenchmarkEngine"]
	if eng.NsPerOp != 13.53 || eng.Iterations != 85639108 || eng.AllocsPerOp != 0 {
		t.Errorf("engine = %+v", eng)
	}
	day := byName["BenchmarkServeDay"]
	if day.Metrics["wall_s/day"] != 0.972 || day.Metrics["events/s"] != 1966133 {
		t.Errorf("serve-day metrics = %+v", day.Metrics)
	}
	if day.BPerOp != 42528192 || day.AllocsPerOp != 34490 {
		t.Errorf("serve-day mem = %+v", day)
	}
	if sched := byName["BenchmarkScheduler"]; sched.Pkg != "polca/internal/serve" {
		t.Errorf("scheduler pkg = %q", sched.Pkg)
	}
}

func TestParseRejectsDuplicateNames(t *testing.T) {
	dup := "BenchmarkX-4 10 5.0 ns/op\nBenchmarkX-8 10 6.0 ns/op\n"
	if _, err := parseBenchOutput(strings.NewReader(dup)); err == nil ||
		!strings.Contains(err.Error(), "duplicate benchmark BenchmarkX") {
		t.Errorf("err = %v", err)
	}
}

// writeArtifactFile emits the artifact as JSON for compare/check tests.
func writeArtifactFile(t *testing.T, dir, name string, art *Artifact) string {
	t.Helper()
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEmitCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	outJSON := filepath.Join(dir, "BENCH_test.json")
	var out, errw bytes.Buffer
	if code := cli([]string{"-o", outJSON, in}, &out, &errw); code != 0 {
		t.Fatalf("emit exited %d: %s", code, errw.String())
	}
	if code := cli([]string{"-check", outJSON}, &out, &errw); code != 0 {
		t.Fatalf("check exited %d: %s", code, errw.String())
	}
	// Corrupt the schema tag; -check must fail.
	data, _ := os.ReadFile(outJSON)
	bad := bytes.Replace(data, []byte(schemaV1), []byte("polca-bench/v999"), 1)
	if err := os.WriteFile(outJSON, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := cli([]string{"-check", outJSON}, &out, &errw); code == 0 {
		t.Error("check accepted a wrong schema version")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	old := parseSample(t)
	oldPath := writeArtifactFile(t, dir, "old.json", old)

	clone := func() *Artifact {
		cp := *old
		cp.Benchmarks = append([]Benchmark(nil), old.Benchmarks...)
		return &cp
	}
	find := func(art *Artifact, name string) *Benchmark {
		for i := range art.Benchmarks {
			if art.Benchmarks[i].Name == name {
				return &art.Benchmarks[i]
			}
		}
		t.Fatalf("no %s", name)
		return nil
	}

	t.Run("identical passes", func(t *testing.T) {
		var out, errw bytes.Buffer
		if code := cli([]string{"-compare", oldPath, oldPath}, &out, &errw); code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
		if !strings.Contains(out.String(), "no regressions") {
			t.Errorf("output: %s", out.String())
		}
	})
	t.Run("time regression advisory warns", func(t *testing.T) {
		slow := clone()
		find(slow, "BenchmarkScheduler").NsPerOp *= 1.30
		newPath := writeArtifactFile(t, dir, "slow2.json", slow)
		var out, errw bytes.Buffer
		if code := cli([]string{"-compare", oldPath, newPath}, &out, &errw); code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
		if !strings.Contains(out.String(), "WARN: BenchmarkScheduler") {
			t.Errorf("output: %s", out.String())
		}
	})
	t.Run("alloc increase fails even advisory", func(t *testing.T) {
		leaky := clone()
		find(leaky, "BenchmarkScheduler").AllocsPerOp = 2
		newPath := writeArtifactFile(t, dir, "leaky.json", leaky)
		var out, errw bytes.Buffer
		if code := cli([]string{"-compare", oldPath, newPath}, &out, &errw); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(errw.String(), "allocs/op 0 → 2") {
			t.Errorf("stderr: %s", errw.String())
		}
	})
	t.Run("lost coverage fails", func(t *testing.T) {
		fewer := clone()
		fewer.Benchmarks = fewer.Benchmarks[:len(fewer.Benchmarks)-1]
		newPath := writeArtifactFile(t, dir, "fewer.json", fewer)
		var out, errw bytes.Buffer
		if code := cli([]string{"-compare", oldPath, newPath}, &out, &errw); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(errw.String(), "missing from") {
			t.Errorf("stderr: %s", errw.String())
		}
	})
	t.Run("improvement passes", func(t *testing.T) {
		fast := clone()
		find(fast, "BenchmarkServeDay").NsPerOp /= 2
		newPath := writeArtifactFile(t, dir, "fast.json", fast)
		var out, errw bytes.Buffer
		if code := cli([]string{"-compare", oldPath, newPath}, &out, &errw); code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
	})
}

func TestRequire(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := cli([]string{"-require", "BenchmarkEngine,BenchmarkServeDay,BenchmarkScheduler", in}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if code := cli([]string{"-require", "BenchmarkEngine,BenchmarkGhost", in}, &out, &errw); code != 1 {
		t.Fatal("missing benchmark should fail -require")
	}
	if !strings.Contains(errw.String(), "BenchmarkGhost") {
		t.Errorf("stderr: %s", errw.String())
	}
}

func TestZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	// BenchmarkEngine and BenchmarkScheduler both report 0 allocs/op.
	if code := cli([]string{"-zero-alloc", "BenchmarkEngine, BenchmarkScheduler", in}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "zero-alloc contract holds") {
		t.Errorf("stdout: %s", out.String())
	}
	// BenchmarkServeDay allocates; the gate must hard-fail with the name and
	// the measured allocs/op in the message.
	errw.Reset()
	if code := cli([]string{"-zero-alloc", "BenchmarkServeDay", in}, &out, &errw); code != 1 {
		t.Fatal("allocating benchmark should fail -zero-alloc")
	}
	if !strings.Contains(errw.String(), "BenchmarkServeDay") || !strings.Contains(errw.String(), "allocates") {
		t.Errorf("stderr: %s", errw.String())
	}
	// A name absent from the input is an error, not a silent pass.
	errw.Reset()
	if code := cli([]string{"-zero-alloc", "BenchmarkGhost", in}, &out, &errw); code != 1 {
		t.Fatal("missing benchmark should fail -zero-alloc")
	}
	if !strings.Contains(errw.String(), "missing from input") {
		t.Errorf("stderr: %s", errw.String())
	}
	// Composes with -require: both gates must pass.
	errw.Reset()
	if code := cli([]string{"-require", "BenchmarkEngine", "-zero-alloc", "BenchmarkEngine", in}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
}
