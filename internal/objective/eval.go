package objective

import (
	"fmt"
	"math"
	"slices"

	"rdbsc/internal/model"
	"rdbsc/internal/scratch"
)

// Evaluation summarizes an assignment against the two RDB-SC goals.
type Evaluation struct {
	// MinRel is the minimum reliability among tasks that received at least
	// one worker (goal 2 of Definition 4). Tasks with no assigned worker are
	// excluded from the minimum — with more tasks than reachable workers a
	// literal minimum over all tasks would be identically zero and carry no
	// signal, and the paper's reported values (≈ the lower confidence bound)
	// confirm this reading. AssignedTasks reports coverage separately.
	MinRel float64
	// MinR is the additive form of MinRel, min Σ −ln(1−p).
	MinR float64
	// TotalESTD is Σ_i E[STD(t_i)] (goal 3 of Definition 4).
	TotalESTD float64
	// AssignedWorkers is the number of workers holding an assignment.
	AssignedWorkers int
	// AssignedTasks is the number of tasks with ≥ 1 worker.
	AssignedTasks int
}

// String implements fmt.Stringer.
func (e Evaluation) String() string {
	return fmt.Sprintf("minRel=%.4f totalSTD=%.4f (workers=%d tasks=%d)",
		e.MinRel, e.TotalESTD, e.AssignedWorkers, e.AssignedTasks)
}

// Dominates reports whether e is strictly better than other in the Pareto
// sense used throughout the paper: at least as good in both goals and
// strictly better in one.
func (e Evaluation) Dominates(other Evaluation) bool {
	return dominates2(e.MinR, e.TotalESTD, other.MinR, other.TotalESTD)
}

// Evaluate computes the Evaluation of assignment a on instance in.
// Pair validity is not re-checked here; use in.CheckAssignment for that.
func Evaluate(in *model.Instance, a *model.Assignment) Evaluation {
	return EvaluateBuf(nil, in, a)
}

// EvaluateBuf is Evaluate with the diversity temporaries drawn from bufs
// (nil disables pooling); the result is bit-identical.
func EvaluateBuf(bufs *scratch.Buffers, in *model.Instance, a *model.Assignment) Evaluation {
	tasks, workers := entityMaps(in)
	var ev Evaluator
	return ev.EvaluateBuf(bufs, in.Beta, AssignmentEntries(a, in.Opt, tasks, workers))
}

// BuildStates constructs per-task states from a full assignment. Tasks with
// no workers get no state; a task whose assigned workers all fail
// model.Arrival gets an empty one.
func BuildStates(in *model.Instance, a *model.Assignment) map[model.TaskID]*TaskState {
	return BuildStatesBuf(nil, in, a)
}

// BuildStatesBuf is BuildStates with pooled scratch for the E[STD]
// computations; the resulting states are identical.
func BuildStatesBuf(bufs *scratch.Buffers, in *model.Instance, a *model.Assignment) map[model.TaskID]*TaskState {
	tasks, workers := entityMaps(in)
	return StatesFromEntriesBuf(bufs, in.Beta, AssignmentEntries(a, in.Opt, tasks, workers))
}

// entityMaps indexes the instance's tasks and workers by ID.
func entityMaps(in *model.Instance) (map[model.TaskID]*model.Task, map[model.WorkerID]*model.Worker) {
	tasks := make(map[model.TaskID]*model.Task, len(in.Tasks))
	for i := range in.Tasks {
		tasks[in.Tasks[i].ID] = &in.Tasks[i]
	}
	workers := make(map[model.WorkerID]*model.Worker, len(in.Workers))
	for i := range in.Workers {
		workers[in.Workers[i].ID] = &in.Workers[i]
	}
	return tasks, workers
}

// EvaluateStates aggregates per-task states into an Evaluation. Tasks are
// visited in ID order so the floating-point total is reproducible.
func EvaluateStates(states map[model.TaskID]*TaskState) Evaluation {
	ids := make([]model.TaskID, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var f evalFold
	for _, id := range ids {
		f.add(states[id])
	}
	return f.result()
}

// evalFold accumulates task states, visited in task ID order, into an
// Evaluation. Tasks without workers are skipped.
type evalFold struct {
	ev   Evaluation
	seen bool // some task had a worker; ev.MinR is meaningful
}

func (f *evalFold) add(st *TaskState) {
	if st.Len() == 0 {
		return
	}
	f.ev.AssignedTasks++
	f.ev.AssignedWorkers += st.Len()
	f.ev.TotalESTD += st.ESTD()
	if !f.seen || st.R() < f.ev.MinR {
		f.ev.MinR = st.R()
		f.seen = true
	}
}

func (f *evalFold) result() Evaluation {
	if f.seen {
		f.ev.MinRel = RelFromR(f.ev.MinR)
	}
	return f.ev
}

// MinRelOverAllTasks returns the literal minimum reliability over every
// task in the instance (unassigned tasks count as reliability 0). Exposed
// for analyses that need the strict Definition 4 reading.
func MinRelOverAllTasks(in *model.Instance, states map[model.TaskID]*TaskState) float64 {
	min := math.Inf(1)
	for i := range in.Tasks {
		st := states[in.Tasks[i].ID]
		if st == nil || st.Len() == 0 {
			return 0
		}
		if rel := st.Rel(); rel < min {
			min = rel
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
