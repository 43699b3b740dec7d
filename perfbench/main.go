// Command perfbench is the end-to-end benchmark of the Concord
// production path. It builds the stack an application would run —
// real locks registered in a Framework, shipped .pol policies compiled,
// verified, analysed and attached, telemetry and continuous profiling
// enabled — and drives it from outside through the packages' exported
// functions, timing the calls it makes into each layer.
//
// Usage (from the repository root):
//
//	go -C perfbench build -o ../.bench_build/perfbench .
//	.bench_build/perfbench --workload ht_full_stack --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
// prints the per-layer metrics of a traced run (spans at every
// benchmark→layer call, the layer ladder, control- and data-plane
// microtimings). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// perfbench/README.md lists every metric and the layer each one isolates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	policyDir string
	outDir    string
	commit    string
	// corruptEvery corrupts every Nth checked output; the smoke test
	// sets it to prove the output checks catch wrong results.
	corruptEvery int64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every worker's op stream derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured duration of one run, in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.StringVar(&cfg.policyDir, "policies", "policies", "directory holding the shipped .pol policies")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for result records and span dumps")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded in the provenance")
	flag.Parse()

	if _, ok := specs[cfg.workload]; !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames()))
	}
	if cfg.seconds <= 0 || cfg.trace < 0 || cfg.trace > 1 {
		fail(fmt.Errorf("bad flags: --seconds must be > 0, --trace 0 or 1"))
	}

	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	prov := provenance(cfg)
	if err := record(cfg, prov, res); err != nil {
		fail(err)
	}
	report(os.Stdout, cfg, prov, res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one untraced or traced run of cfg.workload.
func run(cfg config) (*result, error) {
	sp := specs[cfg.workload]
	srcs, err := readPolicies(cfg.policyDir, sp)
	if err != nil {
		return nil, err
	}
	if cfg.trace == 0 {
		return runEndToEnd(cfg, sp, srcs)
	}
	return runTraced(cfg, sp, srcs)
}

// result is the benchmark's output contract (the last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed on the human-readable lines only.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// record writes the result with its provenance under cfg.outDir, one
// file per workload, seed and mode.
func record(cfg config, prov map[string]any, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("creating result dir: %w", err)
	}
	name := fmt.Sprintf("%s/%s-seed%d-trace%d.json", cfg.outDir, cfg.workload, cfg.seed, cfg.trace)
	b, err := json.MarshalIndent(map[string]any{
		"schema":     "concord-perfbench/1",
		"provenance": prov,
		"result":     res,
		"notes":      res.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, b, 0o644)
}

// report prints the human-readable lines: provenance, then every metric
// by name with its unit.
func report(w *os.File, cfg config, prov map[string]any, res *result) {
	mode := "end-to-end (untraced)"
	if cfg.trace == 1 {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s: %s\n", cfg.workload, mode)
	keys := make([]string, 0, len(prov))
	for k := range prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  provenance %-10s %v\n", k, prov[k])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d (%s)\n",
		res.Correct, res.Attempted, res.Failed, time.Now().UTC().Format(time.RFC3339))
}

// provenance describes the host and build a result was measured on.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     cfg.commit,
		"workers":    workers(),
		"seed":       cfg.seed,
	}
}
