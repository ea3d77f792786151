package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness table needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each selected workload once per seed 1..cfg.steady, each run
// a separate process invoked exactly as run.sh invokes one, and prints for
// every end-to-end metric the median, the quartiles and the spread
// (Q3−Q1)/median against the metric's bound from BENCHMARK.json.
func steady(cfg config) error {
	raw, err := os.ReadFile(cfg.bounds)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", cfg.bounds, err)
	}
	sel := specs
	if cfg.workload != "all" {
		sp, err := specByName(cfg.workload)
		if err != nil {
			return err
		}
		sel = []spec{sp}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, sp := range sel {
		values := map[string][]float64{}
		for seed := 1; seed <= cfg.steady; seed++ {
			cmd := exec.Command(self, "-server", cfg.server, "-work", cfg.work, "-workload", sp.name,
				"-seed", strconv.Itoa(seed), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", sp.name, seed, res.Correct, res.Failed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", sp.name, seed, lines[len(lines)-1])
		}
		fmt.Printf("%s (%d seeds, %gs runs)\n", sp.name, cfg.steady, cfg.seconds)
		fmt.Printf("  %-22s %12s %12s %12s %8s %7s\n", "metric", "Q1", "median", "Q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := ratio(q3-q1, q2)
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound/3 {
				flag = "  over a third of its bound"
			}
			fmt.Printf("  %-22s %12.5g %12.5g %12.5g %8.4f %7.3f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
	}
	return nil
}
