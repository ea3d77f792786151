package core

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
	"rdbsc/internal/scratch"
)

// Sampling implements the RDB-SC_Sampling algorithm of Figure 5: draw K
// random complete assignments (each worker independently picks one of its
// deg(w) reachable tasks uniformly), evaluate each on the two goals, rank
// the samples by top-k dominating score [22], and return the winner.
//
// K defaults to the (ε,δ)-derived sample size of Section 5.2 (Eq. 15/18),
// floored by MinSamples: the paper's model yields very small K̂ for typical
// ε/δ, and a modest floor buys substantial quality for negligible cost.
type Sampling struct {
	// Spec is the (ε,δ) accuracy target. The zero value falls back to
	// ε=0.1, δ=0.9.
	Spec SampleSizeSpec
	// FixedK overrides the derived sample size when positive.
	FixedK int
	// MinSamples floors the derived sample size (default 64).
	MinSamples int
	// Multiplier scales the final sample count (used by G-TRUTH's 10×
	// configuration). Values < 1 are treated as 1.
	Multiplier int
	// Parallel evaluates samples on all CPUs. Results are identical to the
	// sequential run for the same seed: each sample derives its own random
	// stream from a per-sample seed, so the draw order is independent of
	// goroutine scheduling. Progress reporting coarsens to one Stage per
	// batch (after all draws finish) so the callback is never invoked
	// concurrently; the sequential path reports per draw.
	Parallel bool
}

// NewSampling returns the default sampling solver (ε=0.1, δ=0.9, floor 64).
func NewSampling() *Sampling {
	return &Sampling{Spec: SampleSizeSpec{Epsilon: 0.1, Delta: 0.9}}
}

// Name implements Solver.
func (s *Sampling) Name() string { return "SAMPLING" }

// SampleCount returns the number of samples the solver will draw for the
// given problem.
func (s *Sampling) SampleCount(p *Problem) int {
	if s.FixedK > 0 {
		return s.scale(s.FixedK)
	}
	spec := s.Spec
	if !spec.Validate() {
		spec = SampleSizeSpec{Epsilon: 0.1, Delta: 0.9}
	}
	degrees := make([]int, 0, len(p.byWorker))
	for _, idxs := range p.byWorker {
		degrees = append(degrees, len(idxs))
	}
	// LogPopulation sums logs in slice order; sort so the floating-point
	// total (and with it the sample count) never varies with map order.
	sort.Ints(degrees)
	k := SampleSize(LogPopulation(degrees), spec)
	min := s.MinSamples
	if min <= 0 {
		min = 64
	}
	if k < min {
		k = min
	}
	return s.scale(k)
}

func (s *Sampling) scale(k int) int {
	if s.Multiplier > 1 {
		k *= s.Multiplier
	}
	return k
}

// Solve implements Solver. Cancellation is checked before every draw; on
// interruption the winner among the samples already evaluated is returned
// with ErrInterrupted (an empty assignment when no sample completed).
func (s *Sampling) Solve(ctx context.Context, p *Problem, opts *SolveOptions) (*Result, error) {
	workers := p.ConnectedWorkers()
	if len(workers) == 0 {
		return finishResult(p, model.NewAssignment(), Stats{}), nil
	}
	src := opts.source()
	k := s.SampleCount(p)

	// Per-sample seeds are drawn up front from the caller's source, making
	// the sample set identical whether evaluation is sequential or
	// parallel.
	seeds := make([]int64, k)
	for h := range seeds {
		seeds[h] = src.Int63()
	}

	space := newSampleSpace(p)
	choices := make([][]int32, k)
	evals := make([]objective.Evaluation, k)
	drawOne := func(bufs *scratch.Buffers, sc *sampleScratch, h int) {
		hs := rng.New(seeds[h])
		choice := make([]int32, len(workers))
		for i, wid := range workers {
			cand := p.WorkerPairs(wid)
			choice[i] = cand[hs.Intn(len(cand))]
		}
		choices[h] = choice
		evals[h] = space.evaluate(bufs, sc, choice)
	}

	// drawn counts the evaluated prefix: samples 0..drawn-1 are complete in
	// both the sequential and the parallel path, so a partial winner is
	// selected over exactly that prefix.
	drawn := 0
	var sAllocs, sReuses int
	if s.Parallel && k > 1 {
		// A fixed pool of drawers claims sample indices in order. The
		// context is checked before each claim, so every claimed index is
		// drawn and the drawn set is the prefix 0..next-1.
		var next, pAllocs, pReuses atomic.Int64
		var wg sync.WaitGroup
		for range min(runtime.GOMAXPROCS(0), k) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bufs := scratch.Get()
				var sc sampleScratch
				for ctx.Err() == nil {
					h := int(next.Add(1) - 1)
					if h >= k {
						break
					}
					drawOne(bufs, &sc, h)
				}
				a, r := bufs.Counters()
				pAllocs.Add(int64(a))
				pReuses.Add(int64(r))
				scratch.Put(bufs)
			}()
		}
		wg.Wait()
		drawn = min(int(next.Load()), k)
		sAllocs, sReuses = int(pAllocs.Load()), int(pReuses.Load())
		if drawn > 0 {
			opts.emit(Stage{
				Solver: s.Name(),
				Round:  drawn,
				Total:  k,
				Stats:  Stats{Samples: drawn},
			})
		}
	} else {
		bufs := scratch.Get()
		var sc sampleScratch
		for h := 0; h < k && ctx.Err() == nil; h++ {
			drawOne(bufs, &sc, h)
			drawn++
			opts.emit(Stage{
				Solver: s.Name(),
				Round:  drawn,
				Total:  k,
				Stats:  Stats{Samples: drawn},
			})
		}
		sAllocs, sReuses = bufs.Counters()
		scratch.Put(bufs)
	}
	if drawn == 0 {
		return finishResult(p, model.NewAssignment(), Stats{}), interrupted(ctx)
	}

	bufs := scratch.Get()
	vecs := make([]objective.Vec2, drawn)
	for h := 0; h < drawn; h++ {
		vecs[h] = objective.Vec2{R: evals[h].MinR, D: evals[h].TotalESTD}
	}
	scores := objective.DominanceScoresBuf(bufs, vecs)
	best := objective.ArgmaxScore(vecs, scores)
	bufs.PutInt(scores)
	ra, rr := bufs.Counters()
	sAllocs += ra
	sReuses += rr
	scratch.Put(bufs)
	a := model.NewAssignment()
	for i, wid := range workers {
		a.Assign(wid, p.Pairs[choices[best][i]].Task)
	}
	res := &Result{
		Assignment: a,
		Eval:       evals[best],
		Stats:      Stats{Samples: drawn, ScratchAllocs: sAllocs, ScratchReused: sReuses},
	}
	// drawn < k only when the context interrupted the draws; a deadline
	// expiring after the final draw still completed the solve.
	if drawn < k {
		return res, interrupted(ctx)
	}
	return res, nil
}

// sampleSpace is the once-per-solve precomputation behind sample
// evaluation. Every pair is resolved into its one-pass build entry up
// front — arrival, approach angle and confidence from the same
// model.Arrival/ApproachAngle calls objective.NewEntry makes for a whole
// assignment — and stored in (task, worker) order, so a sample is
// evaluated straight from its pair-index choice vector: look up each
// chosen pair's rank, sort the ranks, and read the entries off in order.
type sampleSpace struct {
	beta    float64
	entries []objective.Entry // every resolvable pair, by rank
	rank    []int32           // pair index -> rank in entries, -1 if unresolvable
}

func newSampleSpace(p *Problem) *sampleSpace {
	sp := &sampleSpace{beta: p.In.Beta, rank: make([]int32, len(p.Pairs))}
	order := make([]int32, 0, len(p.Pairs))
	all := make([]objective.Entry, len(p.Pairs))
	for i, pr := range p.Pairs {
		sp.rank[i] = -1
		w, t := p.Worker(pr.Worker), p.Task(pr.Task)
		if w == nil || t == nil || pr.Task == model.NoTask {
			// Evaluation drops pairs naming an entity the instance lacks
			// (and Assignment.Assign drops NoTask).
			continue
		}
		all[i] = objective.NewEntry(t, w, p.In.Opt)
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return objective.CompareEntries(all[a], all[b]) })
	sp.entries = make([]objective.Entry, len(order))
	for r, i := range order {
		sp.entries[r] = all[i]
		sp.rank[i] = int32(r)
	}
	return sp
}

// sampleScratch is one drawer's reusable evaluation state.
type sampleScratch struct {
	ranks   []int32
	entries []objective.Entry
	ev      objective.Evaluator
}

// evaluate returns the Evaluation of the assignment choosing pair
// choice[i] for the i-th connected worker. It equals Problem.Evaluate of
// that assignment bit for bit, and allocates nothing once sc and bufs have
// warmed up.
func (sp *sampleSpace) evaluate(bufs *scratch.Buffers, sc *sampleScratch, choice []int32) objective.Evaluation {
	sc.ranks = sc.ranks[:0]
	for _, pi := range choice {
		if r := sp.rank[pi]; r >= 0 {
			sc.ranks = append(sc.ranks, r)
		}
	}
	slices.Sort(sc.ranks)
	sc.entries = sc.entries[:0]
	for _, r := range sc.ranks {
		sc.entries = append(sc.entries, sp.entries[r])
	}
	return sc.ev.EvaluateBuf(bufs, sp.beta, sc.entries)
}
