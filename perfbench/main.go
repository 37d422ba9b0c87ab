// Command perfbench is ocelot's benchmark: one command that runs a named,
// seeded campaign workload through the public campaign and scheduler
// entry points, checks every output, and prints each end-to-end metric
// (untraced run) or each per-layer metric (traced run) by name and unit.
//
//	bash perfbench/run.sh --workload cpu-mixed --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// The exit code is non-zero when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// scratchDir holds each run's journals, relative to the checkout root the
// benchmark runs from; a run removes its own subdirectory when it ends.
const scratchDir = ".bench_build/perfbench"

func main() { os.Exit(benchMain()) }

// benchMain runs one invocation and returns the process exit code.
func benchMain() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cpu-mixed, wan-planned or serve-tenants")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "seconds the measured window lasts at least")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.minSamples = minTailSamples
	cfg.shrink = 1
	cfg.dir = filepath.Join(scratchDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(cfg.dir)

	fmt.Println(hostLine())
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, w := range rep.warnings {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", w)
	}
	for _, name := range rep.order {
		v := rep.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
