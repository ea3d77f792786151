package core

import (
	"context"
	"errors"
	"slices"
	"sort"

	"rdbsc/internal/geo"
	"rdbsc/internal/kmeans"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
	"rdbsc/internal/scratch"
)

// DC implements the divide-and-conquer algorithm of Section 6 (Figure 6):
// recursively split the task-worker bipartite graph into two balanced,
// sparse halves with BG_Partition (Figure 7, k-means on task locations),
// solve small subproblems with the base solver, and combine the two
// sub-answers with SA_Merge (Figure 9), resolving the duplicated
// "conflicting workers" — independently for ICWs and jointly (by 2^k
// enumeration) for DCW groups (Lemmas 6.1 and 6.2).
type DC struct {
	// Gamma is the threshold γ: subproblems with at most Gamma tasks are
	// solved directly (default 8).
	Gamma int
	// Base solves the leaf subproblems (default: the sampling solver, as in
	// the paper's experiments).
	Base Solver
	// DCWGroupLimit caps the dependent-conflicting-worker group size that
	// is resolved by exhaustive 2^k enumeration; larger groups fall back to
	// a sequential greedy resolution (default 12).
	DCWGroupLimit int
}

// NewDC returns the default divide-and-conquer solver.
func NewDC() *DC { return &DC{} }

// Name implements Solver.
func (d *DC) Name() string { return "D&C" }

func (d *DC) gamma() int {
	if d.Gamma > 0 {
		return d.Gamma
	}
	return 8
}

func (d *DC) base() Solver {
	if d.Base != nil {
		return d.Base
	}
	return NewSampling()
}

func (d *DC) groupLimit() int {
	if d.DCWGroupLimit > 0 {
		return d.DCWGroupLimit
	}
	return 12
}

// Solve implements Solver. Cancellation is checked at every subproblem
// boundary: before each leaf solve and before each SA_Merge. On
// interruption the assignment combined from the completed subtrees is
// returned with ErrInterrupted — sub-answers already solved are still
// merged so the partial result is the best combination found so far.
func (d *DC) Solve(ctx context.Context, p *Problem, opts *SolveOptions) (*Result, error) {
	run := &dcRun{opts: opts, bufs: scratch.Get()}
	a, stats, err := d.solve(ctx, p, opts.source(), run)
	allocs, reuses := run.bufs.Counters()
	stats.ScratchAllocs += allocs
	stats.ScratchReused += reuses
	scratch.Put(run.bufs)
	return finishResult(p, a, stats), err
}

// dcRun threads the per-solve progress state — and the merge phase's
// scratch buffers — through the recursion. The recursion is sequential,
// so one Buffers serves the whole solve.
type dcRun struct {
	opts   *SolveOptions
	leaves int
	bufs   *scratch.Buffers
}

func (d *DC) solve(ctx context.Context, p *Problem, src *rng.Source, run *dcRun) (*model.Assignment, Stats, error) {
	if ctx.Err() != nil {
		return model.NewAssignment(), Stats{}, interrupted(ctx)
	}
	if len(p.In.Tasks) <= d.gamma() {
		return d.solveLeaf(ctx, p, src, run)
	}
	p1, p2, ok := bgPartition(p, src)
	if !ok {
		return d.solveLeaf(ctx, p, src, run)
	}
	a1, s1, err := d.solve(ctx, p1, src, run)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		// Terminal failures (e.g. a base solver over its population cap)
		// abort the recursion; only interrupts fall through to the merge.
		return a1, s1, err
	}
	// An interrupt in the left subtree still proceeds to the right solve
	// (which returns immediately under the done context) and the merge,
	// symmetric with a right-subtree interrupt: the partial result returned
	// upward is always the best combination of the completed sub-answers.
	a2, s2, err2 := d.solve(ctx, p2, src, run)
	if err == nil {
		err = err2
	}
	stats := s1.Add(s2)
	// Merge even when a subtree was interrupted: its partial sub-answer
	// still improves the combined assignment.
	merged, ms := saMerge(p, a1, a2, d.groupLimit(), run.bufs)
	stats = stats.Add(ms)
	if err == nil {
		run.opts.emit(Stage{
			Solver:   d.Name(),
			Round:    run.leaves,
			Assigned: merged.Len(),
			Stats:    stats,
		})
	}
	return merged, stats, err
}

// solveLeaf runs the base solver on a subproblem small enough to solve
// directly.
func (d *DC) solveLeaf(ctx context.Context, p *Problem, src *rng.Source, run *dcRun) (*model.Assignment, Stats, error) {
	res, err := d.base().Solve(ctx, p, &SolveOptions{Source: src})
	if res == nil {
		res = finishResult(p, model.NewAssignment(), Stats{})
	}
	res.Stats.Rounds++
	run.leaves++
	if err == nil {
		run.opts.emit(Stage{
			Solver:   d.Name(),
			Round:    run.leaves,
			Assigned: res.Assignment.Len(),
			Stats:    res.Stats,
		})
	}
	return res.Assignment, res.Stats, err
}

// bgPartition implements BG_Partition (Figure 7): tasks are split into two
// balanced halves by spatial clustering; a worker whose reachable tasks lie
// wholly in one half joins only that half's subproblem, while workers
// reaching both halves are duplicated into both (becoming potential
// conflicting workers). Subproblem pairs are filtered from the parent, so
// no reachability is recomputed. ok is false when the split degenerates
// (all tasks on one side).
func bgPartition(p *Problem, src *rng.Source) (p1, p2 *Problem, ok bool) {
	tasks := p.In.Tasks
	locs := make([]geo.Point, len(tasks))
	for i, t := range tasks {
		locs[i] = t.Loc
	}
	side := kmeans.BalancedBisect(locs, src)

	taskSide := make(map[model.TaskID]int, len(tasks))
	var t1, t2 []model.Task
	for i, t := range tasks {
		taskSide[t.ID] = side[i]
		if side[i] == 0 {
			t1 = append(t1, t)
		} else {
			t2 = append(t2, t)
		}
	}
	if len(t1) == 0 || len(t2) == 0 {
		return nil, nil, false
	}

	var w1, w2 []model.Worker
	for i := range p.In.Workers {
		w := p.In.Workers[i]
		idxs := p.WorkerPairs(w.ID)
		if len(idxs) == 0 {
			continue
		}
		in1, in2 := false, false
		for _, pi := range idxs {
			if taskSide[p.Pairs[pi].Task] == 0 {
				in1 = true
			} else {
				in2 = true
			}
		}
		if in1 {
			w1 = append(w1, w)
		}
		if in2 {
			w2 = append(w2, w)
		}
	}

	pairs1 := filterPairs(p, taskSide, 0)
	pairs2 := filterPairs(p, taskSide, 1)
	in1 := &model.Instance{Tasks: t1, Workers: w1, Beta: p.In.Beta, Opt: p.In.Opt}
	in2 := &model.Instance{Tasks: t2, Workers: w2, Beta: p.In.Beta, Opt: p.In.Opt}
	return NewProblemWithPairs(in1, pairs1), NewProblemWithPairs(in2, pairs2), true
}

func filterPairs(p *Problem, taskSide map[model.TaskID]int, side int) []model.Pair {
	var out []model.Pair
	for _, pr := range p.Pairs {
		if taskSide[pr.Task] == side {
			out = append(out, pr)
		}
	}
	return out
}

// saMerge implements SA_Merge (Figure 9). Workers assigned in both
// sub-answers are conflicting; one of their two copies must be deleted.
// Conflicting workers that share a task with other conflicting workers form
// dependent groups (DCWs) whose copy deletions are decided jointly by 2^k
// enumeration; independent conflicting workers (ICWs) are groups of size
// one (Lemma 6.2). Non-conflicting assignments are untouched (Lemma 6.1).
func saMerge(p *Problem, a1, a2 *model.Assignment, groupLimit int, bufs *scratch.Buffers) (*model.Assignment, Stats) {
	var stats Stats
	merged := model.NewAssignment()
	var conflicting []model.WorkerID
	seen := make(map[model.WorkerID]bool)

	a1.Workers(func(w model.WorkerID, t model.TaskID) {
		if a2.Assigned(w) {
			if !seen[w] {
				seen[w] = true
				conflicting = append(conflicting, w)
			}
			return
		}
		merged.Assign(w, t)
	})
	a2.Workers(func(w model.WorkerID, t model.TaskID) {
		if !seen[w] {
			merged.Assign(w, t)
		}
	})
	if len(conflicting) == 0 {
		return merged, stats
	}
	sort.Slice(conflicting, func(i, j int) bool { return conflicting[i] < conflicting[j] })

	// Group conflicting workers into dependent components: two conflicting
	// workers are linked when either sub-answer assigns them to a common
	// task.
	taskMembers := make(map[model.TaskID][]int) // task -> conflicting indices
	for i, w := range conflicting {
		for _, t := range []model.TaskID{a1.TaskOf(w), a2.TaskOf(w)} {
			taskMembers[t] = append(taskMembers[t], i)
		}
	}
	uf := newUnionFind(len(conflicting))
	for _, members := range taskMembers {
		for i := 1; i < len(members); i++ {
			uf.union(members[0], members[i])
		}
	}
	groups := make(map[int][]int)
	for i := range conflicting {
		root := uf.find(i)
		groups[root] = append(groups[root], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	for _, root := range roots {
		group := groups[root]
		stats.MergeGroups++
		if len(group) <= groupLimit {
			stats.MergeExhaustive++
			resolveGroupExhaustive(p, a1, a2, conflicting, group, merged, bufs)
		} else {
			resolveGroupGreedy(p, a1, a2, conflicting, group, merged, bufs)
		}
	}
	return merged, stats
}

// resolveGroupExhaustive tries all 2^k side choices for the group's
// conflicting workers, evaluating the affected tasks only, and commits the
// dominance-score winner into merged.
func resolveGroupExhaustive(p *Problem, a1, a2 *model.Assignment, conflicting []model.WorkerID, group []int, merged *model.Assignment, bufs *scratch.Buffers) {
	affected := affectedTasks(a1, a2, conflicting, group)
	base := baseStates(p, merged, affected, bufs)

	k := len(group)
	total := 1 << uint(k)
	vecs := make([]objective.Vec2, total)
	for mask := 0; mask < total; mask++ {
		states := cloneStates(base)
		for bit, gi := range group {
			w := conflicting[gi]
			t := chooseSide(a1, a2, w, mask&(1<<uint(bit)) != 0)
			addToState(p, states, w, t, bufs)
		}
		vecs[mask] = statesVec(states)
	}
	scores := objective.DominanceScoresBuf(bufs, vecs)
	best := objective.ArgmaxScore(vecs, scores)
	bufs.PutInt(scores)
	for bit, gi := range group {
		w := conflicting[gi]
		merged.Assign(w, chooseSide(a1, a2, w, best&(1<<uint(bit)) != 0))
	}
}

// resolveGroupGreedy resolves an oversized DCW group sequentially: each
// worker in turn picks the side that leaves the affected tasks' objectives
// better, given the choices made so far.
func resolveGroupGreedy(p *Problem, a1, a2 *model.Assignment, conflicting []model.WorkerID, group []int, merged *model.Assignment, bufs *scratch.Buffers) {
	affected := affectedTasks(a1, a2, conflicting, group)
	states := baseStates(p, merged, affected, bufs)
	for _, gi := range group {
		w := conflicting[gi]
		t1, t2 := a1.TaskOf(w), a2.TaskOf(w)
		s1 := cloneStates(states)
		addToState(p, s1, w, t1, bufs)
		s2 := cloneStates(states)
		addToState(p, s2, w, t2, bufs)
		v1, v2 := statesVec(s1), statesVec(s2)
		if v2.Dominates(v1) {
			merged.Assign(w, t2)
			states = s2
		} else {
			merged.Assign(w, t1)
			states = s1
		}
	}
}

func chooseSide(a1, a2 *model.Assignment, w model.WorkerID, second bool) model.TaskID {
	if second {
		return a2.TaskOf(w)
	}
	return a1.TaskOf(w)
}

// affectedTasks collects the tasks any group member touches in either
// sub-answer.
func affectedTasks(a1, a2 *model.Assignment, conflicting []model.WorkerID, group []int) map[model.TaskID]bool {
	out := make(map[model.TaskID]bool)
	for _, gi := range group {
		w := conflicting[gi]
		out[a1.TaskOf(w)] = true
		out[a2.TaskOf(w)] = true
	}
	delete(out, model.NoTask)
	return out
}

// baseStates builds the objective states of the affected tasks from the
// already-merged (non-group) assignments in one pass.
func baseStates(p *Problem, merged *model.Assignment, affected map[model.TaskID]bool, bufs *scratch.Buffers) map[model.TaskID]*objective.TaskState {
	var entries []objective.Entry
	merged.Workers(func(wid model.WorkerID, tid model.TaskID) {
		if !affected[tid] {
			return
		}
		if w, t := p.Worker(wid), p.Task(tid); w != nil && t != nil {
			entries = append(entries, objective.NewEntry(t, w, p.In.Opt))
		}
	})
	slices.SortFunc(entries, objective.CompareEntries)
	states := objective.StatesFromEntriesBuf(bufs, p.In.Beta, entries)
	for t := range affected {
		if task := p.Task(t); task != nil && states[t] == nil {
			states[t] = objective.NewTaskState(*task, p.In.Beta)
		}
	}
	return states
}

func addToState(p *Problem, states map[model.TaskID]*objective.TaskState, wid model.WorkerID, tid model.TaskID, bufs *scratch.Buffers) {
	if tid == model.NoTask {
		return
	}
	st := states[tid]
	w := p.Worker(wid)
	t := p.Task(tid)
	if st == nil || w == nil || t == nil {
		return
	}
	arr, ok := model.Arrival(*t, *w, p.In.Opt)
	if !ok {
		return
	}
	st.AddBuf(bufs, wid, w.Confidence, arr, model.ApproachAngle(*t, *w))
}

// statesVec reduces a set of task states to the (min R, Σ E[STD]) objective
// vector used to compare merge choices.
func statesVec(states map[model.TaskID]*objective.TaskState) objective.Vec2 {
	ev := objective.EvaluateStates(states)
	return objective.Vec2{R: ev.MinR, D: ev.TotalESTD}
}

func cloneStates(states map[model.TaskID]*objective.TaskState) map[model.TaskID]*objective.TaskState {
	c := make(map[model.TaskID]*objective.TaskState, len(states))
	for t, st := range states {
		c[t] = st.Clone()
	}
	return c
}

// unionFind is a standard disjoint-set structure with path halving.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}
