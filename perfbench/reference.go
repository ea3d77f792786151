package main

import (
	"context"
	"sort"

	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
)

// reference is the in-process model of the server's state: one monolithic
// engine booted from the same CSV preload and fed the same mutations, one
// batch per mutation as the closed loop makes the server's apply loop do.
type reference struct {
	eng    *engine.Engine
	shards int
}

func engineConfig(in *model.Instance) engine.Config {
	// rdbsc-server passes -beta and -wait through exactly this way.
	return engine.Config{Beta: in.Beta, BetaSet: true, Opt: in.Opt}
}

func newReference(in *model.Instance, shards int) *reference {
	return &reference{eng: engine.NewFromInstance(in, engineConfig(in)), shards: shards}
}

func (r *reference) apply(m engine.Mutation) { r.eng.ApplyBatch([]engine.Mutation{m}) }

// problem returns the problem a solve of the server sees. The single-engine
// server solves the engine's problem as it is; the cluster solves the
// assembled global problem, whose pairs are in canonical (task, worker)
// order.
func (r *reference) problem() *core.Problem {
	snap := r.eng.Snapshot()
	if r.shards == 1 {
		return snap.Problem
	}
	return canonical(snap.Problem)
}

// solver returns the solver the server runs for a request naming name: the
// cluster's coordinator is bit-identical to the component-sharded solver.
func (r *reference) solver(name string) (core.Solver, error) {
	s, err := core.NewByName(name)
	if err != nil || r.shards == 1 {
		return s, err
	}
	return core.NewSharded(s), nil
}

func (r *reference) solve(ctx context.Context, name string, seed int64) (*core.Result, error) {
	s, err := r.solver(name)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, r.problem(), &core.SolveOptions{Seed: seed})
}

func canonical(p *core.Problem) *core.Problem {
	pairs := append([]model.Pair(nil), p.Pairs...)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Task != pairs[j].Task {
			return pairs[i].Task < pairs[j].Task
		}
		return pairs[i].Worker < pairs[j].Worker
	})
	return core.NewProblemWithPairs(p.In, pairs)
}
