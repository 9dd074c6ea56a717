// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's artifact ID
// (fig4, tab4, fig17, ...), runs the relevant simulation or profiling
// harness, and renders its results as text tables whose rows mirror what
// the paper reports. The cmd/polca-experiments binary and bench_test.go
// both drive this registry.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"polca/internal/obs"
)

// Options scales experiments between quick smoke runs and full,
// paper-scale reproductions.
type Options struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// TrainDays is the policy-training slice of the trace (paper: 1 week).
	TrainDays int
	// EvalDays is the evaluation slice (paper: 5 weeks for §6.6).
	EvalDays int
	// SweepDays is the horizon for parameter sweeps (paper: 1 week, §6.5).
	SweepDays int
	// RowServers is the base row size (Table 2: 40).
	RowServers int
	// Quick reduces sweep densities and horizons for tests.
	Quick bool
	// Parallel bounds how many row simulations run concurrently across a
	// Run or RunAll pass, however many experiments and sweeps are in
	// flight; RunAll also runs at most Parallel experiments at once,
	// started in registration order. 0 means GOMAXPROCS; 1 runs one
	// experiment and one simulation at a time, in order. Results are
	// identical at any setting: every simulation owns a private sim.Engine
	// seeded from Seed, and sweeps assemble their outputs in spec order.
	Parallel int

	// Obs, when non-nil, receives sweep-level events (grid.start/grid.done)
	// and aggregates engine/row metrics across every simulation the
	// experiments run. Observation never changes results: output is
	// byte-identical with or without it (TestObsDoesNotPerturbResults).
	Obs *obs.Observer
	// Progress, when non-nil, tracks grid points through the sweep executor
	// for the -v log and the /progress endpoint.
	Progress *obs.Progress

	// Faults, when non-empty, replaces the figfault experiment's built-in
	// intensity-1 chaos scenario with this faults-package DSL spec. Other
	// experiments ignore it: the paper figures run fault-free.
	Faults string

	// Scenario, when non-empty, restricts the figscenario experiment to one
	// workload scenario (a builtin name or a .scn file path) instead of
	// sweeping the committed library. Other experiments ignore it: the
	// paper figures run the Table 6 mix.
	Scenario string

	// tokens holds the pass's Parallel simulation tokens; normalize makes
	// it once per pass, and each row simulation holds one while it runs.
	tokens chan struct{}
}

// DefaultOptions mirrors the paper's evaluation scale.
func DefaultOptions() Options {
	return Options{Seed: 1, TrainDays: 7, EvalDays: 35, SweepDays: 7, RowServers: 40}
}

// QuickOptions returns a scaled-down configuration suitable for tests.
func QuickOptions() Options {
	return Options{Seed: 1, TrainDays: 1, EvalDays: 1, SweepDays: 1, RowServers: 12, Quick: true}
}

// normalize fills zero fields from defaults and makes the pass's
// simulation tokens if o has none; Run keeps the ones RunAll made, so
// every experiment of a RunAll pass draws on one budget.
func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.TrainDays <= 0 {
		o.TrainDays = d.TrainDays
	}
	if o.EvalDays <= 0 {
		o.EvalDays = d.EvalDays
	}
	if o.SweepDays <= 0 {
		o.SweepDays = d.SweepDays
	}
	if o.RowServers <= 0 {
		o.RowServers = d.RowServers
	}
	if o.tokens == nil {
		o.tokens = make(chan struct{}, o.workers())
	}
	return o
}

// workers resolves Parallel to a concrete worker count.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one reproduced artifact.
type Result struct {
	ID    string
	Title string
	// Text is the rendered artifact (tables, matrices, summaries).
	Text string
	// Data holds the experiment's typed payload for programmatic checks.
	Data any
}

// Runner produces a Result for the given options.
type Runner func(Options) (Result, error)

// entry is a registered experiment.
type entry struct {
	id    string
	title string
	run   Runner
}

var registry []entry

// register adds an experiment; called from init functions in this package.
func register(id, title string, run Runner) {
	registry = append(registry, entry{id: id, title: title, run: run})
}

// IDs returns the registered experiment IDs in registration (paper) order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.id)
	}
	return out
}

// Title returns the experiment's title.
func Title(id string) (string, error) {
	for _, e := range registry {
		if e.id == id {
			return e.title, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown id %q", id)
}

// Run executes one experiment by ID.
func Run(id string, o Options) (Result, error) {
	o = o.normalize()
	for _, e := range registry {
		if e.id == id {
			res, err := e.run(o)
			if err != nil {
				return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
			}
			res.ID = e.id
			res.Title = e.title
			return res, nil
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// runExperiment is the call RunAll makes per experiment; tests wrap it to
// see the order experiments start in.
var runExperiment = Run

// RunAll executes every registered experiment, streaming rendered results
// to w in registration (paper) order, and returns the structured results.
//
// Experiments run concurrently, at most o.Parallel at a time, started in
// registration order, and their row simulations share the pass's
// o.Parallel tokens; artifacts that share row simulations (fig17/fig18)
// deduplicate through the singleflight simulation cache, so no spec is
// simulated twice. The stream and the returned results are byte-identical
// to a serial run. On error the results completed before the failing
// artifact are returned; the workers finish the queue in the background.
func RunAll(o Options, w io.Writer) ([]Result, error) {
	o = o.normalize()
	workers := o.workers()
	if workers > len(registry) {
		workers = len(registry)
	}
	type slot struct {
		res  Result
		err  error
		done chan struct{}
	}
	slots := make([]*slot, len(registry))
	queue := make(chan int, len(registry))
	for i := range registry {
		slots[i] = &slot{done: make(chan struct{})}
		queue <- i
	}
	close(queue)
	for k := 0; k < workers; k++ {
		go func() {
			for i := range queue {
				s := slots[i]
				s.res, s.err = runExperiment(registry[i].id, o)
				close(s.done)
			}
		}()
	}
	var out []Result
	for _, s := range slots {
		<-s.done
		if s.err != nil {
			return out, s.err
		}
		out = append(out, s.res)
		if w != nil {
			fmt.Fprintf(w, "== %s: %s ==\n%s\n", s.res.ID, s.res.Title, s.res.Text)
		}
	}
	return out, nil
}

// table renders rows of columns with aligned widths.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// f2, f3, pct format numbers the way the paper's tables do.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
