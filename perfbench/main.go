// Command perfbench is rumba's end-to-end serving benchmark. It boots a
// two-node rumba cluster from a freshly trained blackscholes kernel package,
// drives one of three traffic mixes at it from a seed, checks every reply
// against an independent oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer split) ending in one JSON line.
//
//	go run . --workload tiny-routed --seed 1 --seconds 10 --trace 0
//
// See README.md for why each workload exists and how it was calibrated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"rumba/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one printed figure. n is its sample count (0 when it is a single
// measurement rather than a statistic over samples).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is everything one run prints.
type result struct {
	attempted, failed int
	firstErr          error
	metrics           []metric
	notes             []string // extra human-readable lines
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tiny-routed, bulk-direct or recover-inproc")
	seed := fs.Int64("seed", 1, "seed for the generated inputs and tenant order")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "# stamp %s\n", stamp(w, *seed, *seconds, *traced))

	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed; first: %v\n", res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

// stamp records what produced the numbers. The program under test sees only
// the generated inputs; the rest is the benchmark's own configuration.
func stamp(w workload, seed int64, seconds, traced int) string {
	info := buildinfo.Resolve()
	commit := info.GitCommit
	if commit == "" {
		commit = "unknown"
	}
	b, _ := json.Marshal(map[string]any{
		"git_commit": commit, "git_dirty": info.GitDirty, "go_version": info.GoVersion,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"seed": seed, "seconds": seconds, "trace": traced,
		"workload": map[string]any{
			"name": w.name, "transport": w.transport, "elems_per_req": w.elems,
			"tenants": w.tenants, "toq_target": w.target, "open_rate_per_s": w.rate,
			"latency_limit_ms": float64(w.limit.Microseconds()) / 1000, "pool_requests": w.poolReqs,
			"nodes": nodes, "clients": clients,
		},
	})
	return string(b)
}

func printResult(out io.Writer, r *result) error {
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	metrics := map[string]any{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v: too few samples", m.name, m.value)
		}
		fmt.Fprintf(out, "%-32s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
