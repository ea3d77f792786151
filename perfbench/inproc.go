package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rdbsc/internal/applyloop"
	"rdbsc/internal/cluster"
	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

// The in-process replay rebuilds each workload's serving plane from the
// layers' public pieces — exactly the calls rdbsc-server makes for the
// workload's topology — and times every call into a layer with a span.
// Work that is not on the request path of the workload's topology is
// measured by probes on the same state between requests (span parent -1),
// so every layer reports on every workload:
//
//   - -shards 1 (the serve plane): an engine behind an applyloop.Loop with
//     the memory store. Probes: core.NewProblemWithPairs and
//     decompose.Build on the published snapshot, and a 1-shard
//     cluster.Cluster fed the same requests (what the cluster plane would
//     cost here), whose solve is compared with the sharded core solve of
//     its assembled problem.
//   - -shards 2 (the cluster plane): cluster.Cluster over file stores
//     with fsync always. The shard engines are inside the cluster, so the
//     engine, grid and core figures come from probes on the monolithic
//     reference engine, whose canonical problem equals the assembled one.

// counters collects the per-layer counts of one in-process pass.
type counters struct {
	snapshots, rebuilt int
	snapshotPairs      []float64
	retrieveMS         []float64
	eta                []float64

	components, maxCompPairs []float64
	solveStats               []core.Stats
	allocs, allocBytes       []float64

	crossPairs            []float64
	clusterSolves, reused int
	// lastClusterSolve is the latest cluster.Solve's duration; each is
	// paired with a sharded core solve of the same assembled problem.
	lastClusterSolve time.Duration
	solveOverheadMS  []float64

	enqueued, applied, coalesced, batches uint64
	appends, syncs                        uint64
	walBytes                              int64
	mutations, workerUpserts              int
	crossMoves                            uint64
	cacheHits, cacheMisses                uint64
}

func (c *counters) snapshotTaken(s engine.Snapshot) {
	c.snapshots++
	c.snapshotPairs = append(c.snapshotPairs, float64(len(s.Problem.Pairs)))
	if s.Rebuilt {
		c.rebuilt++
		c.retrieveMS = append(c.retrieveMS, ms(s.Retrieve))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// plane is one workload's serving plane, in process.
type plane interface {
	mutate(ctx context.Context, rq request, root int) error
	solve(ctx context.Context, rq request, root int) error
	// settle waits for asynchronous work a solve must not race (a
	// cross-shard move's retirement), like the end-to-end client does.
	settle(ctx context.Context) error
	// finish reads the plane's own counters and shuts it down.
	finish(ctx context.Context) error
}

// tracedStore times the apply loop's WAL appends.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s tracedStore) AppendBatch(muts []engine.Mutation) error {
	id := s.tr.begin("store.append", s.tr.current())
	defer s.tr.end(id)
	return s.Store.AppendBatch(muts)
}

// decodeMutation is the handlers' decode step: the JSON body through
// serve.DecodeBody, or the ID from the path of a DELETE.
func decodeMutation(r *http.Request) (engine.Mutation, error) {
	if r.Method == http.MethodDelete {
		id, err := strconv.ParseInt(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:], 10, 32)
		if err != nil {
			return engine.Mutation{}, err
		}
		if strings.HasPrefix(r.URL.Path, "/v1/tasks/") {
			return engine.TaskRemoval(model.TaskID(id)), nil
		}
		return engine.WorkerRemoval(model.WorkerID(id)), nil
	}
	if r.URL.Path == "/v1/tasks" {
		ts, err := serve.DecodeBody[serve.TaskJSON](r)
		if err != nil {
			return engine.Mutation{}, err
		}
		t := ts[0].ToModel()
		return engine.TaskUpsert(t), t.Valid()
	}
	ws, err := serve.DecodeBody[serve.WorkerJSON](r)
	if err != nil {
		return engine.Mutation{}, err
	}
	w := ws[0].ToModel()
	return engine.WorkerUpsert(w), w.Valid()
}

// ackBody is the handlers' mutation answer.
func ackBody(rq request, ack applyloop.Ack) map[string]any {
	if rq.method == http.MethodDelete {
		return map[string]any{"removed": ack.Changed, "coalesced": ack.Coalesced, "version": ack.Version}
	}
	return map[string]any{"accepted": 1, "applied": 1, "changed": ack.Changed, "coalesced": 0, "version": ack.Version}
}

// encode times the handlers' JSON encoding of an answer.
func encode(tr *tracer, root int, v any) error {
	id := tr.begin("serve.encode", root)
	defer tr.end(id)
	_, err := json.Marshal(v)
	return err
}

// decodeSolve times the solve handlers' body decode.
func decodeSolve(tr *tracer, root int, rq request) (serve.SolveRequest, error) {
	id := tr.begin("serve.decode", root)
	defer tr.end(id)
	var req serve.SolveRequest
	err := json.Unmarshal(rq.body, &req)
	return req, err
}

func decodeTimed(tr *tracer, root int, rq request) (engine.Mutation, error) {
	// Building the request the router hands the handler is HTTP work,
	// outside the decode span.
	r := httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body))
	id := tr.begin("serve.decode", root)
	defer tr.end(id)
	return decodeMutation(r)
}

// coreSolve times one solver call and, for the core layer's own spans
// (named core.solve), records its stats and allocations when tracing.
func (c *counters) coreSolve(ctx context.Context, tr *tracer, parent int, name string, s core.Solver, p *core.Problem, seed int64) (*core.Result, time.Duration, error) {
	var before, after runtime.MemStats
	record := tr.on && name == "core.solve"
	if record {
		runtime.ReadMemStats(&before)
	}
	id := tr.begin(name, parent)
	start := time.Now()
	res, err := s.Solve(ctx, p, &core.SolveOptions{Seed: seed})
	took := time.Since(start)
	tr.end(id)
	if record && err == nil {
		runtime.ReadMemStats(&after)
		c.allocs = append(c.allocs, float64(after.Mallocs-before.Mallocs))
		c.allocBytes = append(c.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		c.solveStats = append(c.solveStats, res.Stats)
	}
	return res, took, err
}

// solveResponse renders a result the way the solve handlers do.
func solveResponse(res *core.Result, version uint64, solver string, seed int64, elapsed time.Duration) *serve.SolveResponse {
	pairs := make([]serve.AssignedPair, 0, res.Assignment.Len())
	res.Assignment.Workers(func(w model.WorkerID, t model.TaskID) {
		pairs = append(pairs, serve.AssignedPair{Worker: w, Task: t})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Worker < pairs[j].Worker })
	return &serve.SolveResponse{
		Version: version, Solver: solver, Seed: seed, Feasible: len(pairs) > 0,
		ElapsedMS: ms(elapsed), AssignedWorkers: res.Eval.AssignedWorkers, AssignedTasks: res.Eval.AssignedTasks,
		MinReliability: res.Eval.MinRel, TotalDiversity: res.Eval.TotalESTD,
		Assignment: pairs, Stats: res.Stats, At: time.Now().UTC(),
	}
}

// checkHit fails when the solve cache disagrees with the request kind, as
// the end-to-end check does.
func checkHit(rq request, hit bool) error {
	if hit != (rq.kind == kindRepeat) {
		return fmt.Errorf("solve seed %d: cache hit=%v for a %s request", rq.seed, hit, kindNames[rq.kind])
	}
	return nil
}

// servePlane is rdbsc-server at -shards 1: one engine owned by one apply
// loop, snapshot-isolated solves, the solve cache in front.
type servePlane struct {
	tr    *tracer
	c     *counters
	eng   *engine.Engine
	loop  *applyloop.Loop
	snap  atomic.Pointer[engine.Snapshot]
	cache *serve.SolveCache
}

func newServePlane(in *model.Instance, tr *tracer, c *counters) (*servePlane, error) {
	p := &servePlane{tr: tr, c: c, eng: engine.NewFromInstance(in, engineConfig(in)), cache: serve.NewSolveCache(64)}
	snap := p.eng.Snapshot()
	p.snap.Store(&snap)
	c.eta = append(c.eta, p.eng.GridEta())
	st := tracedStore{Store: store.NewMemory(), tr: tr}
	loop, err := applyloop.New(applyloop.Config{Apply: p.apply, Append: st.AppendBatch})
	if err != nil {
		return nil, err
	}
	p.loop = loop
	return p, nil
}

// apply is the serve plane's applier: apply the batch, publish a snapshot.
func (p *servePlane) apply(muts []engine.Mutation) ([]bool, uint64) {
	id := p.tr.begin("engine.apply_batch", p.tr.current())
	changed := p.eng.ApplyBatch(muts)
	p.tr.end(id)
	id = p.tr.begin("engine.snapshot", p.tr.current())
	snap := p.eng.Snapshot()
	p.tr.end(id)
	p.snap.Store(&snap)
	p.c.snapshotTaken(snap)
	return changed, snap.Version
}

func (p *servePlane) mutate(ctx context.Context, rq request, root int) error {
	mut, err := decodeTimed(p.tr, root, rq)
	if err != nil {
		return err
	}
	id := p.tr.begin("applyloop", root)
	p.tr.nest(id)
	reply := make(chan applyloop.Ack, 1)
	if err := p.loop.Enqueue(mut, reply); err != nil {
		return err
	}
	var ack applyloop.Ack
	select {
	case ack = <-reply:
	case <-ctx.Done():
		return ctx.Err()
	}
	p.tr.end(id)
	p.c.mutations++
	return encode(p.tr, root, ackBody(rq, ack))
}

func (p *servePlane) solve(ctx context.Context, rq request, root int) error {
	req, err := decodeSolve(p.tr, root, rq)
	if err != nil {
		return err
	}
	snap := p.snap.Load()
	solver, err := core.NewByName(req.Solver)
	if err != nil {
		return err
	}
	key := serve.SolveCacheKey{Fingerprint: snap.Version, Solver: solver.Name(), Seed: req.Seed}
	id := p.tr.begin("serve.cache", root)
	v, hit := p.cache.Get(key, []uint64{snap.Version}, 0)
	p.tr.end(id)
	if err := checkHit(rq, hit); err != nil {
		return err
	}
	var resp *serve.SolveResponse
	if hit {
		cached := *v.(*serve.SolveResponse)
		cached.Cached = true
		resp = &cached
	} else {
		start := time.Now()
		res, _, err := p.c.coreSolve(ctx, p.tr, root, "core.solve", solver, snap.Problem, req.Seed)
		if err != nil {
			return err
		}
		resp = solveResponse(res, snap.Version, solver.Name(), req.Seed, time.Since(start))
		id = p.tr.begin("serve.cache", root)
		p.cache.Put(key, []uint64{snap.Version}, 0, resp)
		p.tr.end(id)
	}
	return encode(p.tr, root, resp)
}

func (p *servePlane) settle(context.Context) error { return nil }

func (p *servePlane) finish(ctx context.Context) error {
	p.loop.Close()
	select {
	case <-p.loop.Drained():
	case <-ctx.Done():
		return ctx.Err()
	}
	st := p.loop.Stats()
	p.c.enqueued += st.Enqueued
	p.c.applied += st.Applied
	p.c.coalesced += st.Coalesced
	p.c.batches += st.Batches
	cs := p.cache.Stats()
	p.c.cacheHits += cs.Hits
	p.c.cacheMisses += cs.Misses
	return nil
}

// clusterPlane is rdbsc-server at -shards N > 1 with -data-dir and
// -fsync always: the cluster's handlers around cluster.Mutate and
// cluster.Solve, the solve cache in front.
type clusterPlane struct {
	tr    *tracer
	c     *counters
	cl    *cluster.Cluster
	files []*store.FileStore
	dir   string
	cache *serve.SolveCache
	state uint64 // mutations applied: the solve-cache key
}

func newClusterPlane(sp spec, in *model.Instance, dir string, tr *tracer, c *counters) (*clusterPlane, error) {
	p := &clusterPlane{tr: tr, c: c, cache: serve.NewSolveCache(64), dir: dir}
	stores := make([]store.Store, sp.shards)
	closeAll := func() {
		for _, f := range p.files {
			_ = f.Close() // the plane failed to start; its directory is removed
		}
	}
	for i := range stores {
		f, err := store.Open(filepath.Join(dir, "shard-"+strconv.Itoa(i)), store.FileOptions{Fsync: store.FsyncAlways})
		if err != nil {
			closeAll()
			return nil, err
		}
		p.files = append(p.files, f)
		stores[i] = tracedStore{Store: f, tr: tr}
	}
	// rdbsc-server's -shards N configuration; 1024 is its -snapshot-every
	// default with a data directory.
	cl, err := cluster.New(cluster.Config{
		Shards: sp.shards, Beta: in.Beta, BetaSet: true, Opt: in.Opt,
		SolverName: sp.solver, Stores: stores, SnapshotEvery: 1024,
	}, in)
	if err != nil {
		closeAll()
		return nil, err
	}
	p.cl = cl
	// What the mutations write is the data directory's growth past the
	// boot snapshot: WAL records (a segment is far too short to compact).
	size, err := dirSize(dir)
	p.c.walBytes -= size
	return p, err
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

func (p *clusterPlane) mutate(ctx context.Context, rq request, root int) error {
	mut, err := decodeTimed(p.tr, root, rq)
	if err != nil {
		return err
	}
	id := p.tr.begin("cluster.mutate", root)
	p.tr.nest(id)
	acks, err := p.cl.Mutate(ctx, mut)
	p.tr.end(id)
	if err != nil {
		return err
	}
	if acks[0].Err != nil {
		return acks[0].Err
	}
	p.state++
	p.c.mutations++
	return encode(p.tr, root, ackBody(rq, acks[0]))
}

func (p *clusterPlane) solve(ctx context.Context, rq request, root int) error {
	req, err := decodeSolve(p.tr, root, rq)
	if err != nil {
		return err
	}
	solver, err := core.NewByName(req.Solver)
	if err != nil {
		return err
	}
	key := serve.SolveCacheKey{Fingerprint: p.state, Solver: solver.Name(), Seed: req.Seed}
	id := p.tr.begin("serve.cache", root)
	v, hit := p.cache.Get(key, []uint64{p.state}, 0)
	p.tr.end(id)
	if err := checkHit(rq, hit); err != nil {
		return err
	}
	var resp cluster.SolveResponse
	if hit {
		resp = *v.(*cluster.SolveResponse)
		resp.Cached = true
	} else {
		start := time.Now()
		id = p.tr.begin("cluster.solve", root)
		res, info, err := p.cl.Solve(ctx, solver, &core.SolveOptions{Seed: req.Seed})
		p.tr.end(id)
		if err != nil {
			return err
		}
		p.c.clusterSolved(info, time.Since(start))
		resp = cluster.SolveResponse{
			SolveResponse:       *solveResponse(res, info.Version, solver.Name(), req.Seed, time.Since(start)),
			EscalatedComponents: info.Escalated, InteriorComponents: info.Interior,
			CrossShardPairs: info.CrossShardPairs, AssemblyReused: info.AssemblyReused,
		}
		id = p.tr.begin("serve.cache", root)
		p.cache.Put(key, []uint64{p.state}, 0, &resp)
		p.tr.end(id)
	}
	return encode(p.tr, root, &resp)
}

func (c *counters) clusterSolved(info cluster.SolveInfo, took time.Duration) {
	c.lastClusterSolve = took
	c.clusterSolves++
	c.crossPairs = append(c.crossPairs, float64(info.CrossShardPairs))
	if info.AssemblyReused {
		c.reused++
	}
}

// clusterStats reads a cluster's /v1/stats through its handler.
func clusterStats(cl *cluster.Cluster) (statsView, error) {
	var st statsView
	rec := httptest.NewRecorder()
	cl.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("cluster /v1/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

func (p *clusterPlane) settle(ctx context.Context) error {
	for deadline := time.Now().Add(5 * time.Second); ; {
		st, err := clusterStats(p.cl)
		if err != nil {
			return err
		}
		if done, err := st.movesSettled(deadline); done || err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (p *clusterPlane) finish(ctx context.Context) error {
	if err := p.settle(ctx); err != nil {
		return err
	}
	st, err := clusterStats(p.cl)
	if err != nil {
		return err
	}
	p.c.enqueued += st.Enqueued
	p.c.applied += st.Applied
	p.c.coalesced += st.Coalesced
	p.c.batches += st.Batches
	p.c.crossMoves += st.Cluster.Moves
	for _, fs := range p.files {
		fst := fs.Stats()
		p.c.appends += fst.Appends
		p.c.syncs += fst.Syncs
	}
	cs := p.cache.Stats()
	p.c.cacheHits += cs.Hits
	p.c.cacheMisses += cs.Misses
	if err := p.cl.Shutdown(ctx); err != nil {
		return err
	}
	size, err := dirSize(p.dir)
	p.c.walBytes += size
	return err
}

// probes measures, between requests, the layers the workload's topology
// does not call on its request path.
type probes struct {
	tr *tracer
	c  *counters
	// serve-plane workloads: a 1-shard cluster fed the same requests.
	cl1 *cluster.Cluster
	sp  *servePlane
	// cluster-plane workloads: the monolithic reference engine.
	ref *engine.Engine
}

func newProbes(sp spec, in *model.Instance, pl plane, tr *tracer, c *counters) (*probes, error) {
	pr := &probes{tr: tr, c: c}
	if s, ok := pl.(*servePlane); ok {
		cl, err := cluster.New(cluster.Config{Shards: 1, Beta: in.Beta, BetaSet: true, Opt: in.Opt, SolverName: sp.solver}, in)
		if err != nil {
			return nil, err
		}
		pr.cl1, pr.sp = cl, s
		return pr, nil
	}
	pr.ref = engine.NewFromInstance(in, engineConfig(in))
	pr.ref.Snapshot()
	c.eta = append(c.eta, pr.ref.GridEta())
	return pr, nil
}

func (pr *probes) after(ctx context.Context, rq request) error {
	var snap engine.Snapshot
	switch {
	case rq.kind == kindMutation && pr.cl1 != nil:
		snap = *pr.sp.snap.Load()
		id := pr.tr.begin("cluster.mutate", -1)
		acks, err := pr.cl1.Mutate(ctx, rq.mut)
		pr.tr.end(id)
		if err != nil {
			return err
		}
		if acks[0].Err != nil {
			return acks[0].Err
		}
	case rq.kind == kindMutation:
		id := pr.tr.begin("engine.apply_batch", -1)
		pr.ref.ApplyBatch([]engine.Mutation{rq.mut})
		pr.tr.end(id)
		id = pr.tr.begin("engine.snapshot", -1)
		snap = pr.ref.Snapshot()
		pr.tr.end(id)
		pr.c.snapshotTaken(snap)
	case rq.kind == kindSolve:
		return pr.afterSolve(ctx, rq)
	default:
		return nil
	}
	id := pr.tr.begin("core.new_problem", -1)
	core.NewProblemWithPairs(snap.Problem.In, snap.Problem.Pairs)
	pr.tr.end(id)
	return nil
}

func (pr *probes) afterSolve(ctx context.Context, rq request) error {
	inner, err := core.NewByName(rq.solver)
	if err != nil {
		return err
	}
	var p *core.Problem
	if pr.cl1 != nil {
		p = pr.sp.snap.Load().Problem
		start := time.Now()
		id := pr.tr.begin("cluster.solve", -1)
		_, info, err := pr.cl1.Solve(ctx, inner, &core.SolveOptions{Seed: rq.seed})
		pr.tr.end(id)
		if err != nil {
			return err
		}
		pr.c.clusterSolved(info, time.Since(start))
	} else {
		p = pr.ref.Snapshot().Problem
	}
	// The cluster's solve is bit-identical to the sharded solve of its
	// assembled (canonically ordered) problem; what it takes beyond that
	// solve is the cluster's own overhead. On the cluster plane this solve
	// is also the core layer's.
	p = canonical(p)
	name := "core.solve"
	if pr.cl1 != nil {
		name = "core.solve_assembled"
	}
	_, took, err := pr.c.coreSolve(ctx, pr.tr, -1, name, core.NewSharded(inner), p, rq.seed)
	if err != nil {
		return err
	}
	pr.c.solveOverheadMS = append(pr.c.solveOverheadMS, ms(pr.c.lastClusterSolve-took))
	id := pr.tr.begin("decompose.build", -1)
	part := decompose.Build(p.Pairs)
	pr.tr.end(id)
	pr.c.components = append(pr.c.components, float64(part.Len()))
	pr.c.maxCompPairs = append(pr.c.maxCompPairs, float64(part.MaxPairs()))
	return nil
}

func (pr *probes) finish(ctx context.Context) error {
	if pr.cl1 == nil {
		return nil
	}
	st, err := clusterStats(pr.cl1)
	if err != nil {
		return err
	}
	pr.c.crossMoves += st.Cluster.Moves
	return pr.cl1.Shutdown(ctx)
}
