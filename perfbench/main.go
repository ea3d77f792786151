// Command perfbench is the repository's serving benchmark. It boots the
// real rdbsc-server on a seeded population, replays a seeded request
// stream in a closed loop (one request in flight over one keep-alive
// connection), checks every answer against an in-process reference engine,
// and prints the end-to-end metrics; with -trace 1 it prints the per-layer
// metrics of an in-process traced replay of the same requests instead.
// With -steady N it runs each workload N times over seeds 1..N and prints
// the spread of every end-to-end metric. See README.md for the workloads,
// the metrics and the layer map.
//
// Build and run it through run.sh, which builds rdbsc-server from the same
// checkout:
//
//	bash perfbench/run.sh --workload islands-solve --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is the benchmark's command line.
type config struct {
	server   string // rdbsc-server binary
	work     string // scratch directory for populations and WALs
	workload string
	seed     int64
	seconds  float64
	trace    bool
	steady   int
	bounds   string // BENCHMARK.json, for the steadiness table
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.server, "server", "", "rdbsc-server binary to benchmark")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for generated populations and WALs")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (all: every workload, with -steady)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (2 is the holdout seed claims must also pass)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced in-process replay")
	flag.IntVar(&cfg.steady, "steady", 0, "run each workload this many times over seeds 1..N and print the spread of every end-to-end metric")
	flag.StringVar(&cfg.bounds, "bounds", "BENCHMARK.json", "benchmark definition holding each metric's bound (with -steady)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.server == "" || cfg.work == "" || cfg.workload == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work, -workload and a positive -seconds are required; -trace is 0 or 1")
		os.Exit(2)
	}
	if cfg.steady > 0 {
		if err := steady(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sp, err := specByName(cfg.workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	var res *result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, sp, dir)
	} else {
		res, err = runEndToEnd(ctx, cfg, sp, dir)
	}
	var out []byte
	if err == nil {
		out, err = json.Marshal(res) // fails on a NaN: a metric without samples
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, cfg.seed, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// e2eRun is the pooled outcome of one run's segments.
type e2eRun struct {
	segs []*segmentResult
}

// measure boots one server per segment and replays its requests; budget is
// split evenly over the segments.
func measure(ctx context.Context, cfg config, sp spec, dir string, budget time.Duration) (*e2eRun, error) {
	run := &e2eRun{}
	for b := 0; b < segments; b++ {
		segDir := filepath.Join(dir, "seg-"+strconv.Itoa(b))
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			return nil, err
		}
		seg, err := newSegment(sp, cfg.seed, b, segDir)
		if err != nil {
			return nil, err
		}
		sr, err := runSegment(ctx, cfg, sp, seg, segDir, budget/time.Duration(segments))
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", b, err)
		}
		run.segs = append(run.segs, sr)
	}
	return run, nil
}

func (r *e2eRun) latencies(k kind) []float64 {
	var out []float64
	for _, s := range r.segs {
		out = append(out, s.latMS[k]...)
	}
	return out
}

// endToEnd is the end-to-end metric set of a run.
func (r *e2eRun) endToEnd() *result {
	var setups, minRel, std, rss []float64
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ok := 0
	for _, s := range r.segs {
		setups = append(setups, s.setup.Seconds())
		minRel = append(minRel, s.firstObj[0])
		std = append(std, s.firstObj[1])
		rss = append(rss, s.peakRSSMB)
		res.Attempted += s.attempted
		ok += s.ok
	}
	res.Failed = res.Attempted - ok
	mut, sol, rep := r.latencies(kindMutation), r.latencies(kindSolve), r.latencies(kindRepeat)
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["mutation_p50_ms"] = metric{percentile(mut, 0.5), "ms"}
	m["mutation_p90_ms"] = metric{percentile(mut, 0.9), "ms"}
	m["solve_p50_ms"] = metric{percentile(sol, 0.5), "ms"}
	m["solve_p90_ms"] = metric{percentile(sol, 0.9), "ms"}
	m["repeat_solve_p50_ms"] = metric{percentile(rep, 0.5), "ms"}
	m["ok_share"] = metric{ratio(float64(ok), float64(res.Attempted)), "share"}
	m["min_reliability"] = metric{median(minRel), "prob"}
	m["total_std"] = metric{median(std), "std"}
	m["peak_rss_mb"] = metric{median(rss), "MiB"}
	return res
}

func runEndToEnd(ctx context.Context, cfg config, sp spec, dir string) (*result, error) {
	run, err := measure(ctx, cfg, sp, dir, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	return run.endToEnd(), nil
}
