// Package scenarios is the builtin workload-scenario library: one
// canonical .scn file per builtin, embedded into the binary. The
// internal/scenario package resolves builtin names against these files,
// so a scenario can be referenced by name or shipped around as a file
// interchangeably.
//
// Rates are calibrated for the default 16-server row (basis 16): the
// aggregate mean load lands near the production trace's ~55% power
// utilization, with peaks (diurnal crest, launch ramp, burst episodes)
// probing the region POLCA caps in.
//
// The builtins:
//
//   - table6 re-expresses the paper's hardcoded workload.Table6 mix as a
//     scenario: same token ranges, same shares, same priority split
//     (chat's 50/50 LowShare becomes two cohorts), under the production
//     diurnal (peak hour 14, relative amplitude ≈ DailyAmp/Base) with the
//     trace fit's Erlang-32 front-door smoothing expressed as gamma(32).
//   - chatbot: consumer chat across two regions plus a free tier. Bursty
//     per-user arrivals (gamma shape < 1), short lognormal turns, growing
//     multi-turn context, per-region diurnal offsets, and a shared system
//     prompt per product surface.
//   - contentgen: marketing-copy generation. Small prompts, long outputs,
//     a Weibull-bursty interactive tier with campaign-day burst episodes,
//     and a flat template-driven batch tier.
//   - summarization: document pipelines. Long uniform prompts with small
//     outputs interactively, plus an overnight batch crawl that runs flat
//     with heavy-tailed submission gaps.
//   - multidoc: retrieval-augmented multi-document QA. Every session pins
//     one of a few shared corpus prefixes (prefix-cache locality), with a
//     sheddable background refresh tier re-indexing the corpus.
//   - agentic-multiturn: tool-driven agent loops. Many short machine-paced
//     turns with aggressively carried context, plus a batch evaluation
//     harness replaying fixed tasks.
//   - launch-day: a product launch on top of steady traffic. The launch
//     cohort ramps 5x over two hours after the 6h announcement and stays
//     there, a press spike decays through the morning, and burst episodes
//     ride the ramp — the adversarial shape for a power-capping policy.
package scenarios

import "embed"

// Files holds the builtin scenarios, one <name>.scn file each.
//
//go:embed *.scn
var Files embed.FS
