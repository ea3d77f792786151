package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/model"
	"rdbsc/internal/workload"
)

// -update regenerates the golden objective file instead of comparing
// against it:
//
//	go test ./internal/core -run TestGoldenEval -update
var updateEval = flag.Bool("update", false, "rewrite testdata/golden_eval.json")

// goldenEvalSolvers are the pinned solvers: the sampling kernel itself, the
// two D&C configurations whose leaves run it, and the greedy, which shares
// the objective's task-state evaluation.
var goldenEvalSolvers = []string{"sampling", "dc", "gtruth", "greedy"}

// goldenEvalSeeds are the pinned seeds; each seeds both the scenario's
// instance and the solve.
var goldenEvalSeeds = []int64{1, 2, 3}

// goldenEvalM and goldenEvalN keep the 96 pinned solves fast while leaving every
// scenario with multi-worker tasks.
const goldenEvalM, goldenEvalN = 24, 48

// goldenEvalCase is one pinned solve. The objective values are stored as
// their IEEE-754 bits so the comparison is exact, and the assignment as an
// FNV-1a fingerprint of its sorted (worker, task) pairs.
type goldenEvalCase struct {
	Scenario    string `json:"scenario"`
	Solver      string `json:"solver"`
	Seed        int64  `json:"seed"`
	MinR        string `json:"minR"`
	TotalESTD   string `json:"totalESTD"`
	Workers     int    `json:"workers"`
	Fingerprint string `json:"fingerprint"`
}

func assignmentFingerprint(a *model.Assignment) string {
	type wt struct {
		w model.WorkerID
		t model.TaskID
	}
	pairs := make([]wt, 0, a.Len())
	a.Workers(func(w model.WorkerID, t model.TaskID) { pairs = append(pairs, wt{w, t}) })
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].w < pairs[j].w })
	h := fnv.New64a()
	for _, p := range pairs {
		fmt.Fprintf(h, "%d:%d;", p.w, p.t)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func recordGoldenEval(t *testing.T) []goldenEvalCase {
	t.Helper()
	var out []goldenEvalCase
	for _, sc := range workload.Registry() {
		for _, seed := range goldenEvalSeeds {
			in := sc.Instance(workload.Params{M: goldenEvalM, N: goldenEvalN, Seed: seed})
			p := core.NewProblem(in)
			for _, name := range goldenEvalSolvers {
				s, err := core.NewByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Solve(context.Background(), p, &core.SolveOptions{Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s/seed %d: %v", sc.Name, name, seed, err)
				}
				out = append(out, goldenEvalCase{
					Scenario:    sc.Name,
					Solver:      name,
					Seed:        seed,
					MinR:        fmt.Sprintf("%016x", math.Float64bits(res.Eval.MinR)),
					TotalESTD:   fmt.Sprintf("%016x", math.Float64bits(res.Eval.TotalESTD)),
					Workers:     res.Eval.AssignedWorkers,
					Fingerprint: assignmentFingerprint(res.Assignment),
				})
			}
		}
	}
	return out
}

// TestGoldenEval solves every workload scenario with the pinned solvers and
// seeds and compares the objective bits and assignment fingerprints against
// testdata/golden_eval.json, so a change to the evaluation kernel (task
// state construction, sample evaluation, merge evaluation) cannot shift a
// solver's answer by even one ULP unnoticed.
func TestGoldenEval(t *testing.T) {
	got := recordGoldenEval(t)
	path := filepath.Join("testdata", "golden_eval.json")
	if *updateEval {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("updated %s (%d solves)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to record): %v", path, err)
	}
	var want []goldenEvalCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("case count diverged: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
