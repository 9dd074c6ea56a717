// Command polca-bench turns `go test -bench` output into the versioned
// BENCH_*.json artifacts that track this repo's performance trajectory, and
// compares two artifacts to gate CI on regressions.
//
// Modes (exactly one):
//
//	go test -run '^$' -bench . -benchmem ./... | polca-bench -o BENCH_N.json
//	    Parse benchmark output (stdin or a file argument) and emit a
//	    polca-bench/v1 JSON artifact.
//
//	polca-bench -compare OLD.json NEW.json
//	    Compare two artifacts. An allocs/op increase on any shared
//	    benchmark fails, and so does a benchmark present in OLD but
//	    missing from NEW: the trajectory must not silently lose coverage.
//	    An ns/op rise above 15% only warns, because wall time on a shared
//	    runner is not trustworthy.
//
//	polca-bench -check FILE.json [FILE2.json ...]
//	    Validate artifacts against the schema; used by `make ci` so a
//	    committed BENCH_*.json can never rot unnoticed.
//
//	polca-bench -require Name1,Name2 [bench-output.txt]
//	    Fail unless every named benchmark appears in the output; guards
//	    `make bench-smoke` against patterns that silently match nothing.
//
//	polca-bench -zero-alloc Name1,Name2 [bench-output.txt]
//	    Fail unless every named benchmark reports exactly 0 allocs/op.
//	    Guards hot paths with an allocation-free contract (the telemetry
//	    TSDB ingest, the rules evaluation tick) — unlike -compare this
//	    needs no baseline artifact, so a first regression cannot slip in
//	    alongside a refreshed snapshot. Composable with -require.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// schemaV1 identifies the artifact format. Bump only with a new reader.
const schemaV1 = "polca-bench/v1"

// Benchmark is one `go test -bench` result row.
type Benchmark struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (events/s, wall_s/day, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the versioned benchmark snapshot committed as BENCH_N.json.
// BaselineRef/Baseline are optional provenance: the pre-change numbers the
// snapshot was measured against, kept inside the artifact so the
// before/after story travels with it. The emitter never fills them; they
// are added by hand (or a future flag) when a snapshot documents a
// perf campaign.
type Artifact struct {
	Schema      string      `json:"schema"`
	Goos        string      `json:"goos,omitempty"`
	Goarch      string      `json:"goarch,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	BaselineRef string      `json:"baseline_ref,omitempty"`
	Baseline    []Benchmark `json:"baseline,omitempty"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("polca-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("o", "", "write the JSON artifact here instead of stdout")
	compare := fs.Bool("compare", false, "compare two artifacts: OLD.json NEW.json")
	check := fs.Bool("check", false, "validate artifact files against the schema")
	require := fs.String("require", "", "comma-separated benchmark names that must appear in the input")
	zeroAlloc := fs.String("zero-alloc", "", "comma-separated benchmark names that must report 0 allocs/op")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(errw, "usage: polca-bench -compare OLD.json NEW.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), out, errw)
	case *check:
		if fs.NArg() == 0 {
			fmt.Fprintln(errw, "usage: polca-bench -check FILE.json ...")
			return 2
		}
		code := 0
		for _, path := range fs.Args() {
			if err := checkArtifact(path); err != nil {
				fmt.Fprintf(errw, "polca-bench: %s: %v\n", path, err)
				code = 1
			} else {
				fmt.Fprintf(out, "%s: ok\n", path)
			}
		}
		return code
	default:
		in, name, err := openInput(fs.Args())
		if err != nil {
			fmt.Fprintln(errw, "polca-bench:", err)
			return 1
		}
		defer in.Close()
		art, err := parseBenchOutput(in)
		if err != nil {
			fmt.Fprintf(errw, "polca-bench: %s: %v\n", name, err)
			return 1
		}
		if *zeroAlloc != "" {
			if err := requireZeroAllocs(art, *zeroAlloc); err != nil {
				fmt.Fprintln(errw, "polca-bench:", err)
				return 1
			}
		}
		if *require != "" {
			if err := requireNames(art, *require); err != nil {
				fmt.Fprintln(errw, "polca-bench:", err)
				return 1
			}
			fmt.Fprintf(out, "all required benchmarks present (%d results)\n", len(art.Benchmarks))
			return 0
		}
		if *zeroAlloc != "" {
			fmt.Fprintf(out, "zero-alloc contract holds for: %s\n", *zeroAlloc)
			return 0
		}
		if len(art.Benchmarks) == 0 {
			fmt.Fprintf(errw, "polca-bench: %s: no benchmark results in input\n", name)
			return 1
		}
		return writeArtifact(art, *outPath, out, errw)
	}
}

// openInput returns the benchmark text source: the single file argument, or
// stdin when no argument is given.
func openInput(args []string) (io.ReadCloser, string, error) {
	switch len(args) {
	case 0:
		return io.NopCloser(os.Stdin), "stdin", nil
	case 1:
		f, err := os.Open(args[0])
		return f, args[0], err
	default:
		return nil, "", fmt.Errorf("expected at most one input file, got %d", len(args))
	}
}

// parseBenchOutput folds `go test -bench` text into an Artifact. Benchmark
// names must be unique across packages — comparisons are keyed by name, so
// a duplicate would make the trajectory ambiguous.
func parseBenchOutput(r io.Reader) (*Artifact, error) {
	art := &Artifact{Schema: schemaV1}
	seen := map[string]string{} // name → pkg
	pkg := ""
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			art.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			art.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result row is "BenchmarkName-P  iterations  value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // e.g. the bare "BenchmarkName" echo line under -v
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate benchmark %s (in %s and %s)", ln+1, name, prev, pkg)
		}
		seen[name] = pkg
		b := Benchmark{Name: name, Pkg: pkg}
		if b.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad iteration count %q", ln+1, fields[1])
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q for unit %q", ln+1, fields[i], fields[i+1])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		art.Benchmarks = append(art.Benchmarks, b)
	}
	sort.Slice(art.Benchmarks, func(i, j int) bool { return art.Benchmarks[i].Name < art.Benchmarks[j].Name })
	return art, nil
}

func writeArtifact(art *Artifact, path string, out, errw io.Writer) int {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(errw, "polca-bench:", err)
		return 1
	}
	data = append(data, '\n')
	if path == "" {
		out.Write(data)
		return 0
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(errw, "polca-bench:", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(art.Benchmarks), path)
	return 0
}

// loadArtifact reads and schema-validates one BENCH_*.json.
func loadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, err
	}
	if err := validate(&art); err != nil {
		return nil, err
	}
	return &art, nil
}

func checkArtifact(path string) error {
	_, err := loadArtifact(path)
	return err
}

// validate enforces the v1 schema invariants.
func validate(art *Artifact) error {
	if art.Schema != schemaV1 {
		return fmt.Errorf("schema %q, want %q", art.Schema, schemaV1)
	}
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("artifact has no benchmarks")
	}
	seen := map[string]bool{}
	for _, b := range art.Benchmarks {
		if b.Name == "" || !strings.HasPrefix(b.Name, "Benchmark") {
			return fmt.Errorf("benchmark name %q does not start with Benchmark", b.Name)
		}
		if seen[b.Name] {
			return fmt.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.Iterations <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: non-positive iterations (%d) or ns/op (%g)", b.Name, b.Iterations, b.NsPerOp)
		}
		if b.BPerOp < 0 || b.AllocsPerOp < 0 {
			return fmt.Errorf("%s: negative B/op or allocs/op", b.Name)
		}
	}
	return nil
}

// timeWarn is the relative ns/op rise -compare warns about.
const timeWarn = 0.15

// runCompare diffs NEW against OLD. Allocation growth and lost coverage are
// fatal; an ns/op rise above timeWarn is a warning.
func runCompare(oldPath, newPath string, out, errw io.Writer) int {
	oldArt, err := loadArtifact(oldPath)
	if err != nil {
		fmt.Fprintf(errw, "polca-bench: %s: %v\n", oldPath, err)
		return 1
	}
	newArt, err := loadArtifact(newPath)
	if err != nil {
		fmt.Fprintf(errw, "polca-bench: %s: %v\n", newPath, err)
		return 1
	}
	newBy := map[string]Benchmark{}
	for _, b := range newArt.Benchmarks {
		newBy[b.Name] = b
	}
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(errw, "FAIL: "+format+"\n", args...)
		code = 1
	}
	for _, ob := range oldArt.Benchmarks {
		nb, ok := newBy[ob.Name]
		if !ok {
			fail("%s: present in %s but missing from %s", ob.Name, oldPath, newPath)
			continue
		}
		delete(newBy, ob.Name)
		rel := nb.NsPerOp/ob.NsPerOp - 1
		switch {
		case nb.AllocsPerOp > ob.AllocsPerOp:
			fail("%s: allocs/op %g → %g (any increase fails)", ob.Name, ob.AllocsPerOp, nb.AllocsPerOp)
		case rel > timeWarn:
			fmt.Fprintf(out, "WARN: %s: ns/op %.4g → %.4g (%+.1f%%, advisory)\n",
				ob.Name, ob.NsPerOp, nb.NsPerOp, rel*100)
		default:
			fmt.Fprintf(out, "ok:   %s: ns/op %.4g → %.4g (%+.1f%%), allocs/op %g → %g\n",
				ob.Name, ob.NsPerOp, nb.NsPerOp, rel*100, ob.AllocsPerOp, nb.AllocsPerOp)
		}
	}
	var added []string
	for name := range newBy {
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(out, "new:  %s (no baseline)\n", name)
	}
	if code == 0 {
		fmt.Fprintf(out, "compare: %s vs %s: no regressions\n", oldPath, newPath)
	}
	return code
}

// requireNames fails unless every comma-separated name parsed out of the
// benchmark output.
func requireNames(art *Artifact, list string) error {
	have := map[string]bool{}
	for _, b := range art.Benchmarks {
		have[b.Name] = true
	}
	var missing []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "" && !have[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks matched nothing: %s (pattern drift in the Makefile?)", strings.Join(missing, ", "))
	}
	return nil
}

// requireZeroAllocs fails if any named benchmark is missing or reports a
// nonzero allocs/op — the allocation-free contract for hot paths, enforced
// without needing a committed baseline.
func requireZeroAllocs(art *Artifact, list string) error {
	byName := map[string]Benchmark{}
	for _, b := range art.Benchmarks {
		byName[b.Name] = b
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := byName[name]
		if !ok {
			return fmt.Errorf("zero-alloc benchmark %s missing from input", name)
		}
		if b.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %.0f allocs/op (%.0f B/op); this path must be allocation-free",
				name, b.AllocsPerOp, b.BPerOp)
		}
	}
	return nil
}
