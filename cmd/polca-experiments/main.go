// Command polca-experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	polca-experiments [-quick] [-seed N] [-eval-days N] [-sweep-days N]
//	                  [-servers N] [-parallel N] [-only id1,id2] [-list]
//	                  [-faults SPEC] [-scenario NAME|FILE] [-v] [-http :6060]
//
// Without -only it runs every registered experiment in paper order and
// prints the reproduced rows. -quick scales horizons down for a fast pass.
// -v logs each sweep grid point as the parallel executor completes it
// (count/total, wall time, cache hits); -http serves live /metrics
// (Prometheus text), /progress (JSON view of in-flight grid points), and
// /debug/pprof while the suite runs. Neither perturbs results. -faults
// overrides the figfault experiment's built-in chaos scenario with a
// faults-package DSL spec; every other experiment runs fault-free.
// -scenario restricts the figscenario experiment to one workload scenario
// (a builtin name or a .scn file) instead of sweeping the committed
// library; every other experiment keeps the Table 6 mix.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polca/internal/experiments"
	"polca/internal/insights"
	"polca/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "run scaled-down experiments")
	seed := flag.Int64("seed", 1, "simulation seed")
	evalDays := flag.Int("eval-days", 0, "evaluation horizon in days (default 35, paper's five weeks)")
	sweepDays := flag.Int("sweep-days", 0, "sweep horizon in days (default 7, paper's one week)")
	servers := flag.Int("servers", 0, "base row size (default 40)")
	parallel := flag.Int("parallel", 0, "max row simulations running at once, across every experiment (0 = GOMAXPROCS, 1 = one at a time)")
	only := flag.String("only", "", "comma-separated experiment IDs to run")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	checkInsights := flag.Bool("insights", false, "verify the paper's nine insights and exit")
	outDir := flag.String("out", "", "also write each experiment's data as JSON into this directory")
	faultSpec := flag.String("faults", "", "override the figfault chaos scenario (faults package DSL)")
	scenFlag := flag.String("scenario", "", "restrict figscenario to one workload scenario (builtin name or .scn file)")
	verbose := flag.Bool("v", false, "log each sweep grid point as it completes")
	httpAddr := flag.String("http", "", "serve live /metrics, /progress, and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	if *checkInsights {
		checks, err := insights.VerifyAll(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(insights.Render(checks))
		if !insights.AllHold(checks) {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed
	if *evalDays > 0 {
		opts.EvalDays = *evalDays
	}
	if *sweepDays > 0 {
		opts.SweepDays = *sweepDays
	}
	if *servers > 0 {
		opts.RowServers = *servers
	}
	opts.Parallel = *parallel
	opts.Faults = *faultSpec
	opts.Scenario = *scenFlag

	if *verbose || *httpAddr != "" {
		opts.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
		opts.Progress = obs.NewProgress(0)
	}
	if *verbose {
		// Progress lines go to stderr so stdout stays the rendered results.
		opts.Progress.OnDone = func(name string, done, total int, cached bool, elapsed, simulated time.Duration) {
			suffix := ""
			switch {
			case cached:
				suffix = " (cached)"
			case elapsed > 0:
				suffix = " (" + siRate(simulated.Seconds()/elapsed.Seconds()) + " sim-s/s)"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s in %.1fs%s\n", done, total, name, elapsed.Seconds(), suffix)
		}
	}
	if *httpAddr != "" {
		addr, err := obs.Serve(*httpAddr, opts.Obs.Metrics, opts.Progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "introspection on http://%s (/metrics, /progress, /debug/pprof)\n", addr)
	}

	if *only == "" {
		results, err := experiments.RunAll(opts, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := exportAll(*outDir, results); err != nil {
			fmt.Fprintln(os.Stderr, "export:", err)
			os.Exit(1)
		}
		return
	}
	var results []experiments.Result
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("== %s: %s ==\n%s\n", res.ID, res.Title, res.Text)
		results = append(results, res)
	}
	if err := exportAll(*outDir, results); err != nil {
		fmt.Fprintln(os.Stderr, "export:", err)
		os.Exit(1)
	}
}

// exportAll writes each result's structured data as JSON plus the rendered
// text, one pair of files per experiment.
func exportAll(dir string, results []experiments.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		blob, err := json.MarshalIndent(map[string]any{
			"id":    res.ID,
			"title": res.Title,
			"data":  res.Data,
		}, "", "  ")
		if err != nil {
			return fmt.Errorf("%s: %w", res.ID, err)
		}
		if err := os.WriteFile(filepath.Join(dir, res.ID+".json"), blob, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, res.ID+".txt"), []byte(res.Text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// siRate renders a rate with an SI suffix, as in 1.6M.
func siRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.0fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
