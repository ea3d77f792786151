package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"

	"rdbsc/internal/dataset"
	"rdbsc/internal/engine"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/workload"
)

// kind classifies a request for latency accounting. Cache hits and misses
// never share a percentile.
type kind int

const (
	kindMutation kind = iota // one single-entity upsert or removal
	kindSolve                // POST /v1/solve against a state not yet solved
	kindRepeat               // the same solve again at an unchanged state
	numKinds
)

var kindNames = [numKinds]string{"mutation", "solve", "repeat_solve"}

// request is one closed-loop HTTP request, plus the decoded form the
// in-process reference and the traced run apply.
type request struct {
	kind   kind
	method string
	path   string
	body   []byte

	mut    engine.Mutation // kindMutation: what the server decodes
	solver string          // solve kinds: registry name
	seed   int64           // solve kinds: per-request solve seed
}

// spec is one workload: which population the server is preloaded with,
// how it is configured, and the shape of the request cycle replayed
// against it. A run boots the server once per segment, each segment with
// its own population drawn from the run's seed.
type spec struct {
	name string

	scenario string
	m, n     int
	shards   int
	durable  bool   // -data-dir with -fsync always
	solver   string // solver every solve request names
}

// segments is how many independently drawn populations one run measures.
// Solve and publish cost vary by 20-35% from one draw to the next, more
// than the bounds allow; pooling the samples of 16 draws keeps a run's
// medians steady across seeds.
const segments = 16

var specs = []spec{
	{
		name:     "churn-ingest",
		scenario: "churn", m: 400, n: 800, shards: 1, solver: "sampling",
	},
	{
		name:     "islands-solve",
		scenario: "islands", m: 80, n: 160, shards: 1, solver: "dc",
	},
	{
		name:     "moving-mixed",
		scenario: "hotspot", m: 80, n: 160, shards: 2, durable: true, solver: "greedy",
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// Cycle shapes. Each cycle ends with one solve and its repeat, so every
// segment's last request leaves a solved, unchanged state behind.
const (
	churnMutationsPerCycle = 12 // trace events between two solves
	islandsMovesPerCycle   = 2
	mixedMovesPerCycle     = 8
	mixedTaskEventEvery    = 4 // one trace task event after every 4 moves

	// moveStep is how far a moving worker advances along its heading per
	// move, in data-space units. With the default 0.3 tiles, a few
	// percent of moves cross a tile boundary, and half of those change
	// shard at -shards 2.
	moveStep = 0.02

	// streamTaskIDBase offsets the IDs of moving-mixed's streamed tasks
	// past the preloaded ones.
	streamTaskIDBase = 1 << 20
)

// segmentSeed derives segment b's population seed from the run's seed;
// distinct run seeds never share a population.
func segmentSeed(seed int64, b int) int64 { return seed*64 + int64(b) + 1 }

// segment is one generated population plus its request stream.
type segment struct {
	prefix string          // CSV preload path prefix given to -in
	in     *model.Instance // the preload as the server loads it
	next   func() []request
}

// newSegment draws segment b of a run: it writes the preload CSVs under
// dir, loads them back exactly as the server will, and returns a
// generator of the request cycles replayed after the preload.
func newSegment(sp spec, seed int64, b int, dir string) (*segment, error) {
	sub := segmentSeed(seed, b)
	sc, err := workload.ByName(sp.scenario)
	if err != nil {
		return nil, err
	}
	p := workload.Params{M: sp.m, N: sp.n, Seed: sub, Horizon: 4}
	gen := sc.Instance(p)
	prefix := filepath.Join(dir, "pop")
	if err := dataset.SaveInstance(prefix, gen); err != nil {
		return nil, err
	}
	in, err := dataset.LoadInstance(prefix, gen.Beta)
	if err != nil {
		return nil, err
	}
	in.Opt = gen.Opt
	seg := &segment{prefix: prefix, in: in}

	rnd := rand.New(rand.NewSource(sub))
	cycle := 0
	solves := func() []request {
		cycle++
		return []request{solveRequest(kindSolve, sp.solver, int64(cycle)), solveRequest(kindRepeat, sp.solver, int64(cycle))}
	}
	switch sp.scenario {
	case "churn":
		// Replay the second half of the trace: the preload is the
		// population alive at its midpoint.
		tr := sc.Trace(p)
		events := tr.Events
		i := sort.Search(len(events), func(i int) bool { return events[i].At > tr.Horizon/2 })
		seg.next = func() []request {
			var out []request
			for k := 0; k < churnMutationsPerCycle && i < len(events); k++ {
				out = append(out, eventRequest(events[i]))
				i++
			}
			return append(out, solves()...)
		}
	case "islands":
		mv := newMover(in, rnd)
		seg.next = func() []request {
			var out []request
			for k := 0; k < islandsMovesPerCycle; k++ {
				out = append(out, mv.move())
			}
			return append(out, solves()...)
		}
	case "hotspot":
		// Task churn comes from a second hotspot draw whose tasks arrive
		// and expire around the preloaded ones.
		tp := p
		tp.Seed = -sub
		var taskEvents []workload.Event
		for _, ev := range sc.Trace(tp).Events {
			switch ev.Kind {
			case workload.TaskArrive:
				ev.Task.ID += streamTaskIDBase
			case workload.TaskExpire:
				ev.TaskID += streamTaskIDBase
			default:
				continue
			}
			taskEvents = append(taskEvents, ev)
		}
		mv := newMover(in, rnd)
		ti := 0
		seg.next = func() []request {
			var out []request
			for k := 1; k <= mixedMovesPerCycle; k++ {
				out = append(out, mv.move())
				if k%mixedTaskEventEvery == 0 && ti < len(taskEvents) {
					out = append(out, eventRequest(taskEvents[ti]))
					ti++
				}
			}
			return append(out, solves()...)
		}
	default:
		return nil, fmt.Errorf("no request stream for scenario %q", sp.scenario)
	}
	return seg, nil
}

func solveRequest(k kind, solver string, seed int64) request {
	body, _ := json.Marshal(serve.SolveRequest{Solver: solver, Seed: seed}) // plain struct: cannot fail
	return request{kind: k, method: "POST", path: "/v1/solve", body: body, solver: solver, seed: seed}
}

// eventRequest renders one trace event as the single-entity request the
// server receives.
func eventRequest(ev workload.Event) request {
	switch ev.Kind {
	case workload.TaskArrive:
		return taskUpsert(ev.Task)
	case workload.WorkerArrive:
		w, _ := workerUpsert(ev.Worker)
		return w
	case workload.TaskExpire:
		return request{kind: kindMutation, method: "DELETE", path: "/v1/tasks/" + strconv.Itoa(int(ev.TaskID)),
			mut: engine.TaskRemoval(ev.TaskID)}
	default:
		return request{kind: kindMutation, method: "DELETE", path: "/v1/workers/" + strconv.Itoa(int(ev.WorkerID)),
			mut: engine.WorkerRemoval(ev.WorkerID)}
	}
}

// taskUpsert and workerUpsert encode the entity as the server's wire form
// and take the mutation from decoding that body back, so the reference
// applies exactly what the server decodes.
func taskUpsert(t model.Task) request {
	body, _ := json.Marshal(serve.NewTaskJSON(t))
	var back serve.TaskJSON
	_ = json.Unmarshal(body, &back)
	return request{kind: kindMutation, method: "POST", path: "/v1/tasks", body: body, mut: engine.TaskUpsert(back.ToModel())}
}

func workerUpsert(w model.Worker) (request, model.Worker) {
	body, _ := json.Marshal(serve.NewWorkerJSON(w))
	var back serve.WorkerJSON
	_ = json.Unmarshal(body, &back)
	decoded := back.ToModel()
	return request{kind: kindMutation, method: "POST", path: "/v1/workers", body: body, mut: engine.WorkerUpsert(decoded)}, decoded
}

// mover advances live workers along their heading, one worker per move,
// visiting them in a seeded order.
type mover struct {
	workers map[model.WorkerID]model.Worker
	order   []model.WorkerID
	rnd     *rand.Rand
	i       int
}

func newMover(in *model.Instance, rnd *rand.Rand) *mover {
	mv := &mover{workers: make(map[model.WorkerID]model.Worker, len(in.Workers)), rnd: rnd}
	for _, w := range in.Workers {
		mv.workers[w.ID] = w
		mv.order = append(mv.order, w.ID)
	}
	return mv
}

// move re-upserts the next worker moved moveStep along the middle of its
// direction cone. A worker that would leave the unit square turns around.
func (mv *mover) move() request {
	if mv.i%len(mv.order) == 0 {
		mv.rnd.Shuffle(len(mv.order), func(a, b int) { mv.order[a], mv.order[b] = mv.order[b], mv.order[a] })
	}
	w := mv.workers[mv.order[mv.i%len(mv.order)]]
	mv.i++
	heading := w.Dir.Lo + w.Dir.Width/2
	next := geo.Pt(w.Loc.X+moveStep*math.Cos(heading), w.Loc.Y+moveStep*math.Sin(heading))
	if !geo.UnitSquare.Contains(next) {
		w.Dir.Lo = geo.NormalizeAngle(w.Dir.Lo + math.Pi)
		next = geo.Pt(w.Loc.X-moveStep*math.Cos(heading), w.Loc.Y-moveStep*math.Sin(heading))
	}
	w.Loc = next
	req, decoded := workerUpsert(w)
	mv.workers[w.ID] = decoded
	return req
}
