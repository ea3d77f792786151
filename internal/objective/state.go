package objective

import (
	"rdbsc/internal/diversity"
	"rdbsc/internal/model"
	"rdbsc/internal/scratch"
)

// TaskState incrementally maintains one task's objective values — the
// additive reliability R (Eq. 8) and the expected diversity E[STD]
// (Lemma 3.1) — as workers are assigned. It is the workhorse of the greedy
// solver's inner loop and of whole-assignment evaluation.
//
// Each incremental Add costs O(r²) for the exact E[STD] refresh (r =
// workers on this task), so Adding a task's workers one by one costs
// O(r³) in all. Building states for a whole assignment does not go that
// way: StatesFromEntriesBuf and Evaluator append a task's workers in one
// pass and compute E[STD] once, O(r²) per task. DeltaBoundsIfAdd provides
// the O(r) lower/upper bounds of Section 4.3 so that the greedy can prune
// candidates without paying the exact cost (Lemma 4.3).
type TaskState struct {
	Task model.Task
	Beta float64

	workers  []model.WorkerID
	angles   []float64
	arrivals []float64
	probs    []float64

	r    float64 // Σ −ln(1−p): additive reliability
	estd float64 // cached E[STD]

	version uint64 // bumped on every mutation; keys external caches

	bounds      diversity.Bounds // cached BoundsESTD of the current set
	boundsValid bool
}

// NewTaskState returns the empty state for task t with diversity weight β.
func NewTaskState(t model.Task, beta float64) *TaskState {
	return &TaskState{Task: t, Beta: beta}
}

// Len returns the number of workers assigned to the task.
func (s *TaskState) Len() int { return len(s.workers) }

// Workers returns the assigned worker IDs. The caller must not mutate the
// returned slice.
func (s *TaskState) Workers() []model.WorkerID { return s.workers }

// R returns the additive reliability Σ −ln(1−p_j) of the current set.
func (s *TaskState) R() float64 { return s.r }

// Version returns a monotonic counter bumped on every mutation. External
// caches (the greedy solver's per-pair bound cache) key on it: any value
// derived from the state is valid exactly as long as the version matches.
func (s *TaskState) Version() uint64 { return s.version }

// Bounds returns the Section 4.3 lower/upper bounds on E[STD] of the
// current set, cached until the next mutation. DeltaBoundsIfAdd uses it as
// the "before" interval, so a round of candidate evaluations over the same
// task pays for the before-bounds once instead of once per pair.
func (s *TaskState) Bounds() diversity.Bounds { return s.BoundsBuf(nil) }

// BoundsBuf is Bounds with the temporaries of a cold bounds computation
// drawn from bufs (nil disables pooling). The cached value is identical
// either way.
func (s *TaskState) BoundsBuf(bufs *scratch.Buffers) diversity.Bounds {
	if !s.boundsValid {
		s.bounds = diversity.BoundsESTDBuf(bufs, s.Beta, s.angles, s.arrivals, s.probs, s.Task.Start, s.Task.End)
		s.boundsValid = true
	}
	return s.bounds
}

// Rel returns the reliability 1 − Π(1−p_j) of the current set.
func (s *TaskState) Rel() float64 { return RelFromR(s.r) }

// ESTD returns the expected spatial/temporal diversity of the current set.
func (s *TaskState) ESTD() float64 { return s.estd }

// Add assigns a worker with the given confidence, arrival time and ray
// angle to the task, updating R (Lemma 4.1: R += −ln(1−p)) and recomputing
// E[STD].
func (s *TaskState) Add(w model.WorkerID, prob, arrival, angle float64) {
	s.AddBuf(nil, w, prob, arrival, angle)
}

// AddBuf is Add with the E[STD] refresh temporaries drawn from bufs (nil
// disables pooling). The resulting state is identical either way.
func (s *TaskState) AddBuf(bufs *scratch.Buffers, w model.WorkerID, prob, arrival, angle float64) {
	s.workers = append(s.workers, w)
	s.probs = append(s.probs, prob)
	s.arrivals = append(s.arrivals, arrival)
	s.angles = append(s.angles, angle)
	s.r += RTerm(prob)
	s.estd = diversity.ExpectedSTDBuf(bufs, s.Beta, s.angles, s.arrivals, s.probs, s.Task.Start, s.Task.End)
	s.version++
	s.boundsValid = false
}

// AddPair is Add with the pair's precomputed arrival/angle and the worker's
// confidence.
func (s *TaskState) AddPair(p model.Pair, confidence float64) {
	s.Add(p.Worker, confidence, p.Arrival, p.Angle)
}

// AddPairBuf is AddPair with pooled scratch.
func (s *TaskState) AddPairBuf(bufs *scratch.Buffers, p model.Pair, confidence float64) {
	s.AddBuf(bufs, p.Worker, confidence, p.Arrival, p.Angle)
}

// Remove unassigns the worker with the given ID, recomputing both
// objectives. It reports whether the worker was present.
func (s *TaskState) Remove(w model.WorkerID) bool {
	for i, id := range s.workers {
		if id != w {
			continue
		}
		s.r -= RTerm(s.probs[i])
		if s.r < 0 {
			s.r = 0 // floating-point guard
		}
		last := len(s.workers) - 1
		s.workers[i] = s.workers[last]
		s.angles[i] = s.angles[last]
		s.arrivals[i] = s.arrivals[last]
		s.probs[i] = s.probs[last]
		s.workers = s.workers[:last]
		s.angles = s.angles[:last]
		s.arrivals = s.arrivals[:last]
		s.probs = s.probs[:last]
		s.estd = s.computeESTD(s.angles, s.arrivals, s.probs)
		s.version++
		s.boundsValid = false
		return true
	}
	return false
}

// DeltaIfAdd returns the exact objective increases (ΔR, ΔE[STD]) that
// assigning the candidate worker would produce, without mutating the state.
// ΔR is O(1) (Lemma 4.1); ΔE[STD] recomputes the expected diversity with
// the candidate included, O(r²).
func (s *TaskState) DeltaIfAdd(prob, arrival, angle float64) (dR, dSTD float64) {
	return s.DeltaIfAddBuf(nil, prob, arrival, angle)
}

// DeltaIfAddBuf is DeltaIfAdd with the candidate-extended copies and every
// evaluator temporary drawn from bufs (nil disables pooling). Same values
// in the same order, so the result is bit-identical.
func (s *TaskState) DeltaIfAddBuf(bufs *scratch.Buffers, prob, arrival, angle float64) (dR, dSTD float64) {
	dR = RTerm(prob)
	angles := append(append(bufs.F64Cap(len(s.angles)+1), s.angles...), angle)
	arrivals := append(append(bufs.F64Cap(len(s.arrivals)+1), s.arrivals...), arrival)
	probs := append(append(bufs.F64Cap(len(s.probs)+1), s.probs...), prob)
	after := diversity.ExpectedSTDBuf(bufs, s.Beta, angles, arrivals, probs, s.Task.Start, s.Task.End)
	bufs.PutF64(probs)
	bufs.PutF64(arrivals)
	bufs.PutF64(angles)
	return dR, after - s.estd
}

// DeltaBoundsIfAdd returns lower/upper bounds on ΔE[STD] for the candidate
// insertion (Section 4.3), cheaper than the exact Δ. The true Δ always lies
// within the returned interval.
func (s *TaskState) DeltaBoundsIfAdd(prob, arrival, angle float64) diversity.Bounds {
	return s.DeltaBoundsIfAddBuf(nil, prob, arrival, angle)
}

// DeltaBoundsIfAddBuf is DeltaBoundsIfAdd with pooled scratch (nil
// disables pooling); the returned interval is bit-identical.
func (s *TaskState) DeltaBoundsIfAddBuf(bufs *scratch.Buffers, prob, arrival, angle float64) diversity.Bounds {
	before := s.BoundsBuf(bufs)
	angles := append(append(bufs.F64Cap(len(s.angles)+1), s.angles...), angle)
	arrivals := append(append(bufs.F64Cap(len(s.arrivals)+1), s.arrivals...), arrival)
	probs := append(append(bufs.F64Cap(len(s.probs)+1), s.probs...), prob)
	after := diversity.BoundsESTDBuf(bufs, s.Beta, angles, arrivals, probs, s.Task.Start, s.Task.End)
	bufs.PutF64(probs)
	bufs.PutF64(arrivals)
	bufs.PutF64(angles)
	return diversity.DeltaBounds(before, after)
}

// Clone returns a deep copy of the state, including its version and cached
// bounds.
func (s *TaskState) Clone() *TaskState {
	c := &TaskState{
		Task: s.Task, Beta: s.Beta, r: s.r, estd: s.estd,
		version: s.version, bounds: s.bounds, boundsValid: s.boundsValid,
	}
	c.workers = append([]model.WorkerID(nil), s.workers...)
	c.angles = append([]float64(nil), s.angles...)
	c.arrivals = append([]float64(nil), s.arrivals...)
	c.probs = append([]float64(nil), s.probs...)
	return c
}

func (s *TaskState) computeESTD(angles, arrivals, probs []float64) float64 {
	return diversity.ExpectedSTD(s.Beta, angles, arrivals, probs, s.Task.Start, s.Task.End)
}
