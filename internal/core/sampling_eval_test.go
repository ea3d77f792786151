package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdbsc/internal/model"
	"rdbsc/internal/rng"
	"rdbsc/internal/scratch"
)

// evalProblems returns the problems the solver-level evaluation tests run
// on: well-connected and constrained random instances, plus one whose
// externally supplied pairs include pairs model.Arrival rejects under the
// instance's options and a pair naming a task the instance lacks — the
// cases where sample evaluation must drop exactly what Problem.Evaluate
// drops.
func evalProblems() map[string]*Problem {
	out := map[string]*Problem{
		"random":      NewProblem(randomInstance(rng.New(31), 24, 60)),
		"constrained": NewProblem(constrainedInstance(rng.New(32), 24, 60)),
	}
	in := constrainedInstance(rng.New(33), 24, 60)
	waiting := *in
	waiting.Opt.WaitAllowed = true
	pairs := waiting.ValidPairs() // valid only with waiting; in.Opt forbids it
	pairs = append(pairs, model.Pair{Task: 999, Worker: in.Workers[0].ID})
	out["unreachable-pairs"] = NewProblemWithPairs(in, pairs)
	return out
}

func TestEvalProblemsHaveUnreachablePairs(t *testing.T) {
	unreachable := 0
	for _, e := range newSampleSpace(evalProblems()["unreachable-pairs"]).entries {
		if !e.Reachable {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("the unreachable-pairs problem has no pair model.Arrival rejects")
	}
}

// TestSamplingAndDCEvalMatchesEvaluate asserts that the objective the
// one-pass sample evaluation reports for the winner is exactly what
// Problem.Evaluate computes for the returned assignment, for the plain,
// parallel and leaf-solving (D&C, G-TRUTH) uses of the sampler.
func TestSamplingAndDCEvalMatchesEvaluate(t *testing.T) {
	solvers := []Solver{NewSampling(), &Sampling{Parallel: true}, NewDC(), GTruth()}
	for name, p := range evalProblems() {
		for _, s := range solvers {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := s.Solve(context.Background(), p, &SolveOptions{Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, s.Name(), err)
				}
				if want := p.Evaluate(res.Assignment); res.Eval != want {
					t.Errorf("%s/%s seed %d: Eval %+v, Evaluate %+v", name, s.Name(), seed, res.Eval, want)
				}
			}
		}
	}
}

// TestSamplingParallelMatchesSequential pins the per-sample seeding
// contract: the parallel drawers produce the same winner, bit for bit, as
// the sequential loop.
func TestSamplingParallelMatchesSequential(t *testing.T) {
	for name, p := range evalProblems() {
		for seed := int64(1); seed <= 3; seed++ {
			seq, err := (&Sampling{FixedK: 48}).Solve(context.Background(), p, &SolveOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			par, err := (&Sampling{FixedK: 48, Parallel: true}).Solve(context.Background(), p, &SolveOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Eval != par.Eval || assignmentKey(seq.Assignment) != assignmentKey(par.Assignment) {
				t.Errorf("%s seed %d: parallel %v diverged from sequential %v", name, seed, par.Eval, seq.Eval)
			}
			if par.Stats.Samples != 48 {
				t.Errorf("%s seed %d: parallel drew %d samples, want 48", name, seed, par.Stats.Samples)
			}
		}
	}
}

// TestSampleEvaluationAllocatesNothing checks that evaluating a sample
// from its choice vector allocates nothing once the drawer's scratch has
// warmed up.
func TestSampleEvaluationAllocatesNothing(t *testing.T) {
	p := NewProblem(randomInstance(rng.New(34), 40, 80))
	space := newSampleSpace(p)
	workers := p.ConnectedWorkers()
	src := rng.New(35)
	choices := make([][]int32, 8)
	for h := range choices {
		choices[h] = make([]int32, len(workers))
		for i, wid := range workers {
			cand := p.WorkerPairs(wid)
			choices[h][i] = cand[src.Intn(len(cand))]
		}
	}
	bufs := scratch.Get()
	defer scratch.Put(bufs)
	var sc sampleScratch
	for _, c := range choices {
		space.evaluate(bufs, &sc, c) // warm up
	}
	h := 0
	allocs := testing.AllocsPerRun(50, func() {
		space.evaluate(bufs, &sc, choices[h%len(choices)])
		h++
	})
	if allocs != 0 {
		t.Fatalf("steady-state sample evaluation allocates %v times per sample, want 0", allocs)
	}
}

// TestSamplingParallelInterruptKeepsPrefix interrupts the parallel drawers
// with a deadline and checks that the samples they completed are exactly
// a prefix of the sample sequence: the partial winner must equal a full
// sequential solve drawing that many samples from the same seed.
func TestSamplingParallelInterruptKeepsPrefix(t *testing.T) {
	p := NewProblem(randomInstance(rng.New(36), 24, 48))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	par, err := (&Sampling{FixedK: 1 << 14, Parallel: true}).Solve(ctx, p, &SolveOptions{Seed: 9})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	drawn := par.Stats.Samples
	if drawn == 0 {
		t.Skip("no sample completed before the deadline")
	}
	seq, err := (&Sampling{FixedK: drawn}).Solve(context.Background(), p, &SolveOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Eval != par.Eval || assignmentKey(seq.Assignment) != assignmentKey(par.Assignment) {
		t.Errorf("interrupted parallel winner over %d samples %v differs from the sequential prefix winner %v", drawn, par.Eval, seq.Eval)
	}
}
