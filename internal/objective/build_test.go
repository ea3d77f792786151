package objective

import (
	"math"
	"slices"
	"testing"

	"rdbsc/internal/gen"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
	"rdbsc/internal/scratch"
)

// sequentialStates is the incremental reference build: the assignment's
// pairs sorted by (task, worker), each reachable worker Added to its
// task's state one at a time, so every add refreshes E[STD].
func sequentialStates(bufs *scratch.Buffers, in *model.Instance, a *model.Assignment) map[model.TaskID]*TaskState {
	type wt struct {
		w model.WorkerID
		t model.TaskID
	}
	var pairs []wt
	a.Workers(func(w model.WorkerID, t model.TaskID) { pairs = append(pairs, wt{w, t}) })
	slices.SortFunc(pairs, func(x, y wt) int {
		if x.t != y.t {
			return int(x.t) - int(y.t)
		}
		return int(x.w) - int(y.w)
	})
	states := make(map[model.TaskID]*TaskState)
	for _, pr := range pairs {
		w, t := in.WorkerByID(pr.w), in.TaskByID(pr.t)
		if w == nil || t == nil {
			continue
		}
		st := states[pr.t]
		if st == nil {
			st = NewTaskState(*t, in.Beta)
			states[pr.t] = st
		}
		arrival, ok := model.Arrival(*t, *w, in.Opt)
		if !ok {
			continue
		}
		st.AddBuf(bufs, pr.w, w.Confidence, arrival, model.ApproachAngle(*t, *w))
	}
	return states
}

// randomAssignment assigns most workers along a valid pair, some to a task
// they cannot reach (model.Arrival fails), some to a task ID the instance
// lacks, and leaves some unassigned; a few worker IDs unknown to the
// instance are assigned too.
func randomAssignment(src *rng.Source, in *model.Instance) *model.Assignment {
	reach := make(map[model.WorkerID][]model.TaskID)
	for _, p := range in.ValidPairs() {
		reach[p.Worker] = append(reach[p.Worker], p.Task)
	}
	a := model.NewAssignment()
	for _, w := range in.Workers {
		switch x := src.Float64(); {
		case x < 0.7 && len(reach[w.ID]) > 0:
			a.Assign(w.ID, reach[w.ID][src.Intn(len(reach[w.ID]))])
		case x < 0.9:
			a.Assign(w.ID, in.Tasks[src.Intn(len(in.Tasks))].ID)
		case x < 0.95:
			a.Assign(w.ID, model.TaskID(1_000_000+src.Intn(5)))
		}
	}
	for i := 0; i < 3; i++ {
		a.Assign(model.WorkerID(2_000_000+i), in.Tasks[src.Intn(len(in.Tasks))].ID)
	}
	return a
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBulkBuildMatchesSequentialAdds is the differential property test of
// the one-pass build: for random assignments over dense instances at
// β ∈ {0, 0.5, 1}, BuildStates must reproduce the state-by-state result of
// sequential AddBuf calls exactly — same task set, R and E[STD] bit for
// bit, same length, worker order and version — and Evaluate must equal
// EvaluateStates over the sequential states.
func TestBulkBuildMatchesSequentialAdds(t *testing.T) {
	src := rng.New(41)
	bufs := scratch.Get()
	defer scratch.Put(bufs)
	empty := 0 // states left empty because every worker failed model.Arrival
	for _, beta := range []float64{0, 0.5, 1} {
		for trial := 0; trial < 12; trial++ {
			in := gen.GenerateDense(gen.Default().WithScale(6+src.Intn(10), 20+src.Intn(40)).WithSeed(src.Int63()))
			in.Beta = beta
			a := randomAssignment(src, in)
			want := sequentialStates(bufs, in, a)
			got := BuildStatesBuf(bufs, in, a)
			if len(got) != len(want) {
				t.Fatalf("β=%v trial %d: %d states, want %d", beta, trial, len(got), len(want))
			}
			for id, ws := range want {
				gs := got[id]
				if gs == nil {
					t.Fatalf("β=%v trial %d: task %d missing", beta, trial, id)
				}
				if ws.Len() == 0 {
					empty++
				}
				if !sameBits(gs.R(), ws.R()) || !sameBits(gs.ESTD(), ws.ESTD()) ||
					gs.Len() != ws.Len() || gs.Version() != ws.Version() ||
					!slices.Equal(gs.Workers(), ws.Workers()) {
					t.Fatalf("β=%v trial %d task %d: bulk R=%x ESTD=%x len=%d v=%d workers=%v; sequential R=%x ESTD=%x len=%d v=%d workers=%v",
						beta, trial, id,
						math.Float64bits(gs.R()), math.Float64bits(gs.ESTD()), gs.Len(), gs.Version(), gs.Workers(),
						math.Float64bits(ws.R()), math.Float64bits(ws.ESTD()), ws.Len(), ws.Version(), ws.Workers())
				}
			}
			if ev, want := EvaluateBuf(bufs, in, a), EvaluateStates(want); ev != want {
				t.Fatalf("β=%v trial %d: Evaluate %+v, sequential %+v", beta, trial, ev, want)
			}
		}
	}
	if empty == 0 {
		t.Fatal("no trial produced a task whose workers all fail model.Arrival; the edge is untested")
	}
}

// TestBulkBuildUnreachableTaskKeepsEmptyState pins the edge the sequential
// build defines: a task whose only assigned worker fails model.Arrival
// still gets a state, with no workers and zero objectives.
func TestBulkBuildUnreachableTaskKeepsEmptyState(t *testing.T) {
	in := &model.Instance{
		Tasks:   []model.Task{{ID: 1, Start: 0, End: 1}},
		Workers: []model.Worker{{ID: 7, Depart: 5, Speed: 1, Confidence: 0.9}},
		Beta:    0.5,
	}
	if _, ok := model.Arrival(in.Tasks[0], in.Workers[0], in.Opt); ok {
		t.Fatal("fixture pair must be unreachable")
	}
	a := model.NewAssignment()
	a.Assign(7, 1)
	st := BuildStates(in, a)[1]
	if st == nil || st.Len() != 0 || st.R() != 0 || st.ESTD() != 0 || st.Version() != 0 {
		t.Fatalf("state = %+v, want an empty state", st)
	}
	if ev := Evaluate(in, a); ev != (Evaluation{}) {
		t.Fatalf("Evaluate = %+v, want zero", ev)
	}
}

func TestBulkBuildEmptyAssignment(t *testing.T) {
	in := gen.GenerateDense(gen.Default().WithScale(4, 8).WithSeed(3))
	a := model.NewAssignment()
	if got := BuildStates(in, a); len(got) != 0 {
		t.Fatalf("empty assignment built %d states", len(got))
	}
	var ev Evaluator
	if got := ev.EvaluateBuf(nil, in.Beta, nil); got != (Evaluation{}) {
		t.Fatalf("empty entry list evaluated to %+v", got)
	}
}
