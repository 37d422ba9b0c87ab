// Command benchjson regenerates the benchmark artifacts and writes their
// scalar outcomes as machine-readable JSON, so performance trajectories
// are tracked as file diffs rather than read off scrolling logs:
//
//   - BENCH_codecs.json — the CodecShootout artifact: compression wall,
//     ratio, PSNR, and modelled end-to-end seconds per codec per link.
//   - BENCH_hotpath.json — the HotPath artifact: single-stream sz3 and
//     Huffman MB/s on the overhauled entropy hot path versus the pinned
//     pre-overhaul reference implementations, plus the speedup factors
//     the hot-path acceptance gates on (≥2x decompress, ≥1.3x compress).
//   - BENCH_serve.json — the ServeFairness artifact: the multi-tenant
//     scheduler's Jain fairness index, per-tenant and aggregate MB/s on
//     one shared link, and mid-stage cancellation latency.
//   - BENCH_resume.json — the FaultResume artifact: crash-resume digest
//     identity, resume wall vs full-rerun wall, resent-bytes fraction,
//     flap-retry counts, and permanent-failure fail-fast attempts.
//   - BENCH_obs.json — the ObsOverhead artifact: instrumented-but-disabled
//     vs baseline campaign wall (overhead_frac, acceptance < 0.02) plus
//     span and metric-series coverage from one enabled run.
//   - BENCH_integrity.json — the Integrity artifact: corrupted-link digest
//     identity, injected-vs-detected corruption reconciliation (silent
//     escapes must be zero), retransmit ledger, and bound-guarantee
//     quarantine coverage.
//
// Each file is one row of the artifacts table below, produced by the
// experiments driver of the same ID. Usage:
//
//	go run ./tools/benchjson [-shrink N] [-seed S] [-only "ServeFairness,ObsOverhead"]
//
// -only takes comma-separated driver IDs and regenerates just those files
// (default: all six). The Makefile's bench-json target is the canonical
// invocation (`make bench-json ONLY=...` passes -only through).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ocelot/internal/experiments"
)

// report is the emitted JSON document. Values carries every scalar the
// artifact records, keyed exactly as in the Result, so new artifact
// metrics appear in the file without a schema change here.
type report struct {
	Artifact  string             `json:"artifact"`
	Generated string             `json:"generated"`
	GoVersion string             `json:"goVersion"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	Shrink    int                `json:"shrink"`
	Seed      int64              `json:"seed"`
	ElapsedMS float64            `json:"elapsedMs"`
	Values    map[string]float64 `json:"values"`
	Keys      []string           `json:"keys"` // sorted, for stable diffs
}

// artifact is one tracked BENCH file: the experiments driver that writes
// it and the headline values echoed on stdout after writing.
type artifact struct {
	id       string // experiments.Drivers() ID
	file     string
	headline []string
	// fn is the driver, bound by selectArtifacts.
	fn func(experiments.Scale) (*experiments.Result, error)
}

var artifacts = []artifact{
	{id: "CodecShootout", file: "BENCH_codecs.json", headline: []string{"speedup_szx", "szx_share_fast", "szx_share_slow"}},
	{id: "HotPath", file: "BENCH_hotpath.json", headline: []string{"speedup_sz3_decompress", "speedup_sz3_compress"}},
	{id: "ServeFairness", file: "BENCH_serve.json", headline: []string{"jain", "aggregate_mbps", "link_mbps", "cancel_latency_sec"}},
	{id: "FaultResume", file: "BENCH_resume.json", headline: []string{"resume_wall_sec", "full_wall_sec", "resent_fraction", "flap_retries"}},
	{id: "ObsOverhead", file: "BENCH_obs.json", headline: []string{"overhead_frac", "enabled_spans", "metrics_series"}},
	{id: "Integrity", file: "BENCH_integrity.json", headline: []string{"corrupt_groups", "retransmits", "silent_escapes", "degraded_fields"}},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// writeArtifact runs one driver and writes its report to path.
func writeArtifact(fn func(experiments.Scale) (*experiments.Result, error),
	path string, shrink int, seed int64) (*experiments.Result, error) {
	start := time.Now()
	res, err := fn(experiments.Scale{Shrink: shrink, Seed: seed})
	if err != nil {
		return nil, err
	}
	rep := report{
		Artifact:  res.ID,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Shrink:    shrink,
		Seed:      seed,
		ElapsedMS: float64(time.Since(start).Milliseconds()),
		Values:    res.Values,
	}
	for k := range res.Values {
		rep.Keys = append(rep.Keys, k)
	}
	sort.Strings(rep.Keys)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	shrink := fs.Int("shrink", 24, "dataset shrink factor")
	seed := fs.Int64("seed", 42, "experiment seed")
	only := fs.String("only", "", "comma-separated driver IDs to regenerate (default: every tracked artifact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := selectArtifacts(*only)
	if err != nil {
		return err
	}
	for _, a := range rows {
		res, err := writeArtifact(a.fn, a.file, *shrink, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		parts := make([]string, len(a.headline))
		for i, k := range a.headline {
			parts[i] = fmt.Sprintf("%s %.4g", k, res.Values[k])
		}
		fmt.Printf("wrote %s: %d metrics (%s)\n", a.file, len(res.Values), strings.Join(parts, ", "))
	}
	return nil
}

// selectArtifacts resolves the -only list (empty = all) against the
// artifacts table, binding each row to its experiments driver. Unknown or
// untracked IDs are an error, as is a row whose driver no longer exists.
func selectArtifacts(only string) ([]artifact, error) {
	fns := map[string]func(experiments.Scale) (*experiments.Result, error){}
	for _, d := range experiments.Drivers() {
		fns[d.ID] = d.Fn
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[strings.ToLower(id)] = true
		}
	}
	all := len(wanted) == 0
	var out []artifact
	for _, a := range artifacts {
		fn, ok := fns[a.id]
		if !ok {
			return nil, fmt.Errorf("artifact %s has no experiments driver", a.id)
		}
		key := strings.ToLower(a.id)
		if all || wanted[key] {
			a.fn = fn
			out = append(out, a)
			delete(wanted, key)
		}
	}
	if len(wanted) > 0 {
		var ids []string
		for id := range wanted {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("-only: not a tracked artifact: %s", strings.Join(ids, ", "))
	}
	return out, nil
}
