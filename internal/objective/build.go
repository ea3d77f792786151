package objective

import (
	"slices"

	"rdbsc/internal/diversity"
	"rdbsc/internal/model"
	"rdbsc/internal/scratch"
)

// Entry is one assigned (task, worker) pair resolved for the one-pass state
// build: the task, the worker's ID and confidence, and — when model.Arrival
// accepts the pair — its arrival time and approach angle.
type Entry struct {
	Task    *model.Task
	Worker  model.WorkerID
	Prob    float64
	Arrival float64
	Angle   float64
	// Reachable is false when model.Arrival rejects the pair: the task
	// still gets a state, but the worker adds nothing to it.
	Reachable bool
}

// NewEntry resolves the pair (t, w) under opt with the same model.Arrival
// and model.ApproachAngle calls an incremental Add would be fed.
func NewEntry(t *model.Task, w *model.Worker, opt model.Options) Entry {
	e := Entry{Task: t, Worker: w.ID, Prob: w.Confidence}
	e.Arrival, e.Reachable = model.Arrival(*t, *w, opt)
	if e.Reachable {
		e.Angle = model.ApproachAngle(*t, *w)
	}
	return e
}

// CompareEntries orders entries by (task ID, worker ID), the order every
// one-pass build expects. Use it with slices.SortFunc.
func CompareEntries(a, b Entry) int {
	switch {
	case a.Task.ID != b.Task.ID:
		if a.Task.ID < b.Task.ID {
			return -1
		}
		return 1
	case a.Worker < b.Worker:
		return -1
	case a.Worker > b.Worker:
		return 1
	}
	return 0
}

// AssignmentEntries resolves assignment a into entries sorted by
// CompareEntries, looking tasks and workers up in the given maps. Pairs
// naming a task or worker absent from the maps are dropped. Sorting makes
// the build reproducible: map iteration order is random, and the
// floating-point sums behind R and E[STD] are order-sensitive at the ULP
// level.
func AssignmentEntries(a *model.Assignment, opt model.Options, tasks map[model.TaskID]*model.Task, workers map[model.WorkerID]*model.Worker) []Entry {
	out := make([]Entry, 0, a.Len())
	a.Workers(func(wid model.WorkerID, tid model.TaskID) {
		w, t := workers[wid], tasks[tid]
		if w == nil || t == nil {
			return
		}
		out = append(out, NewEntry(t, w, opt))
	})
	slices.SortFunc(out, CompareEntries)
	return out
}

// runEnd returns the end of the run of entries sharing entries[lo]'s task.
func runEnd(entries []Entry, lo int) int {
	hi := lo + 1
	for hi < len(entries) && entries[hi].Task.ID == entries[lo].Task.ID {
		hi++
	}
	return hi
}

// fill loads one task's run of entries (sorted by worker) into the empty
// state s in one pass: it appends the reachable workers in order, sums R
// left to right exactly as successive Adds would, and computes E[STD]
// once over the final slices. E[STD] is a pure function of those slices,
// so the state is bit-identical to one built by Adding the same workers in
// the same order; Version counts the adds, as it would there.
func (s *TaskState) fill(bufs *scratch.Buffers, run []Entry) {
	s.workers = slices.Grow(s.workers, len(run))
	s.probs = slices.Grow(s.probs, len(run))
	s.arrivals = slices.Grow(s.arrivals, len(run))
	s.angles = slices.Grow(s.angles, len(run))
	for i := range run {
		e := &run[i]
		if !e.Reachable {
			continue
		}
		s.workers = append(s.workers, e.Worker)
		s.probs = append(s.probs, e.Prob)
		s.arrivals = append(s.arrivals, e.Arrival)
		s.angles = append(s.angles, e.Angle)
		s.r += RTerm(e.Prob)
	}
	s.version = uint64(len(s.workers))
	if len(s.workers) > 0 {
		s.estd = diversity.ExpectedSTDBuf(bufs, s.Beta, s.angles, s.arrivals, s.probs, s.Task.Start, s.Task.End)
	}
}

// StatesFromEntriesBuf builds the state of every task named in entries,
// which must be sorted by CompareEntries, computing each task's E[STD]
// once. A task whose entries are all unreachable gets an empty state. The
// E[STD] temporaries are drawn from bufs (nil disables pooling).
func StatesFromEntriesBuf(bufs *scratch.Buffers, beta float64, entries []Entry) map[model.TaskID]*TaskState {
	states := make(map[model.TaskID]*TaskState)
	for lo := 0; lo < len(entries); {
		hi := runEnd(entries, lo)
		st := NewTaskState(*entries[lo].Task, beta)
		st.fill(bufs, entries[lo:hi])
		states[st.Task.ID] = st
		lo = hi
	}
	return states
}

// Evaluator evaluates entry lists one after another without materializing
// a state per task: it rebuilds a single reused state for each task run,
// so once its slices and bufs have warmed up an evaluation allocates
// nothing. The zero value is ready to use; an Evaluator belongs to one
// goroutine at a time.
type Evaluator struct {
	st TaskState
}

// EvaluateBuf evaluates the assignment given by entries, sorted by
// CompareEntries, with diversity weight beta. The result is bit-identical
// to EvaluateStates over StatesFromEntriesBuf of the same entries.
func (e *Evaluator) EvaluateBuf(bufs *scratch.Buffers, beta float64, entries []Entry) Evaluation {
	var f evalFold
	st := &e.st
	for lo := 0; lo < len(entries); {
		hi := runEnd(entries, lo)
		*st = TaskState{
			Task: *entries[lo].Task, Beta: beta,
			workers: st.workers[:0], angles: st.angles[:0],
			arrivals: st.arrivals[:0], probs: st.probs[:0],
		}
		st.fill(bufs, entries[lo:hi])
		f.add(st)
		lo = hi
	}
	return f.result()
}
