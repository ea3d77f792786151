package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rdbsc/internal/serve"
)

// segmentResult is what one server boot measured.
type segmentResult struct {
	setup     time.Duration
	latMS     [numKinds][]float64
	attempted int
	ok        int
	cycles    int        // request cycles completed
	firstObj  [2]float64 // min reliability, total STD of the first solve
	peakRSSMB float64
}

// serverArgs is the command line of one segment's server.
func serverArgs(sp spec, seg *segment, dataDir string) []string {
	args := []string{
		"-in", seg.prefix,
		"-beta", strconv.FormatFloat(seg.in.Beta, 'g', -1, 64),
		"-wait=" + strconv.FormatBool(seg.in.Opt.WaitAllowed),
		"-solver", sp.solver,
		"-shards", strconv.Itoa(sp.shards),
		"-solve-cache", "64",
	}
	if sp.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	return args
}

// runSegment boots the server on the segment's preload and replays request
// cycles in a closed loop, one request in flight, until budget is spent.
// Every answer is checked against the in-process reference; any mismatch
// is an error.
func runSegment(ctx context.Context, cfg config, sp spec, seg *segment, dir string, budget time.Duration) (*segmentResult, error) {
	dataDir := filepath.Join(dir, "data")
	defer os.RemoveAll(dataDir)
	srv, setup, err := startServer(ctx, cfg.server, serverArgs(sp, seg, dataDir))
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	ref := newReference(seg.in, sp.shards)
	res := &segmentResult{setup: setup}
	var last serve.SolveResponse
	start := time.Now()
	for {
		if res.cycles > 0 && time.Since(start) >= budget {
			break
		}
		for _, rq := range seg.next() {
			if rq.kind == kindSolve && sp.shards > 1 {
				if err := settleMoves(ctx, srv); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			status, body, err := srv.do(ctx, rq.method, rq.path, rq.body)
			lat := time.Since(t0)
			res.attempted++
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", rq.method, rq.path, err)
			}
			if status/100 != 2 {
				return nil, fmt.Errorf("%s %s: status %d: %s", rq.method, rq.path, status, body)
			}
			res.ok++
			res.latMS[rq.kind] = append(res.latMS[rq.kind], float64(lat)/float64(time.Millisecond))
			switch rq.kind {
			case kindMutation:
				ref.apply(rq.mut)
			case kindSolve, kindRepeat:
				var sr serve.SolveResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					return nil, fmt.Errorf("decoding solve response: %w", err)
				}
				if err := checkSolve(rq, sr, last); err != nil {
					return nil, err
				}
				if res.cycles == 0 && rq.kind == kindSolve {
					res.firstObj = [2]float64{sr.MinReliability, sr.TotalDiversity}
				}
				last = sr
			}
		}
		res.cycles++
	}
	if err := checkFinalState(ctx, srv, ref, sp, last); err != nil {
		return nil, err
	}
	if res.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// checkSolve verifies one solve answer: a miss must be a complete,
// feasible, freshly computed solve; a repeat must be the cache hit of the
// solve just before it, bit for bit.
func checkSolve(rq request, sr, prev serve.SolveResponse) error {
	if !sr.Feasible || sr.Partial || sr.Degraded {
		return fmt.Errorf("solve seed %d: feasible=%v partial=%v degraded=%v", rq.seed, sr.Feasible, sr.Partial, sr.Degraded)
	}
	switch rq.kind {
	case kindSolve:
		if sr.Cached {
			return fmt.Errorf("solve seed %d: answered from the solve cache, want a fresh solve", rq.seed)
		}
	case kindRepeat:
		if !sr.Cached || sr.Seed != prev.Seed || sr.Version != prev.Version ||
			sr.MinReliability != prev.MinReliability || sr.TotalDiversity != prev.TotalDiversity {
			return fmt.Errorf("repeat solve seed %d: cached=%v, not the cache hit of the solve before it", rq.seed, sr.Cached)
		}
	}
	return nil
}

// checkFinalState compares the server's final state with the reference:
// task, worker and valid-pair counts, and the last solve's objective
// against a solve of the reference snapshot with the same solver and
// seed, bit for bit.
func checkFinalState(ctx context.Context, srv *server, ref *reference, sp spec, last serve.SolveResponse) error {
	wantTasks, wantWorkers := ref.eng.Len()
	want := ref.problem()
	st, err := getStats(ctx, srv)
	if err != nil {
		return err
	}
	if st.Tasks != wantTasks || st.Workers != wantWorkers || st.Pairs != len(want.Pairs) {
		return fmt.Errorf("server state %d tasks / %d workers / %d pairs, reference %d / %d / %d",
			st.Tasks, st.Workers, st.Pairs, wantTasks, wantWorkers, len(want.Pairs))
	}
	res, err := ref.solve(ctx, sp.solver, last.Seed)
	if err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if math.Float64bits(res.Eval.MinRel) != math.Float64bits(last.MinReliability) ||
		math.Float64bits(res.Eval.TotalESTD) != math.Float64bits(last.TotalDiversity) ||
		res.Eval.AssignedWorkers != last.AssignedWorkers {
		return fmt.Errorf("last solve (seed %d) objective min_rel=%v total_std=%v workers=%d, reference %v / %v / %d",
			last.Seed, last.MinReliability, last.TotalDiversity, last.AssignedWorkers,
			res.Eval.MinRel, res.Eval.TotalESTD, res.Eval.AssignedWorkers)
	}
	return nil
}

// statsView is the part of /v1/stats the benchmark reads; both server kinds
// share the top-level names.
type statsView struct {
	Tasks, Workers, Pairs int

	Enqueued  uint64 `json:"mutations_enqueued"`
	Applied   uint64 `json:"mutations_applied"`
	Coalesced uint64 `json:"mutations_coalesced"`
	Batches   uint64 `json:"batches"`

	Cluster struct {
		Moves       uint64 `json:"cross_shard_moves"`
		Retirements uint64 `json:"move_retirements"`
		Failures    uint64 `json:"move_retire_failures"`
	}
}

func getStats(ctx context.Context, srv *server) (statsView, error) {
	var st statsView
	status, body, err := srv.do(ctx, "GET", "/v1/stats", nil)
	if err != nil || status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d, %v", status, err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// settleMoves waits until every cross-shard move has retired its source
// copy. The cluster retires it asynchronously after the destination shard
// acknowledged the move, so without this wait a retirement could land
// between a solve and its repeat and turn the repeat into a miss. The
// stats requests are neither timed nor counted.
func settleMoves(ctx context.Context, srv *server) error {
	for deadline := time.Now().Add(5 * time.Second); ; {
		st, err := getStats(ctx, srv)
		if err != nil {
			return err
		}
		if done, err := st.movesSettled(deadline); done || err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// movesSettled reports whether every cross-shard move has retired its
// source copy; a failed retirement, or one still missing at deadline, is
// an error.
func (st statsView) movesSettled(deadline time.Time) (bool, error) {
	c := st.Cluster
	switch {
	case c.Failures > 0:
		return false, fmt.Errorf("%d cross-shard move retirements failed", c.Failures)
	case c.Retirements == c.Moves:
		return true, nil
	case time.Now().After(deadline):
		return false, fmt.Errorf("%d of %d cross-shard moves still unretired after 5s", c.Moves-c.Retirements, c.Moves)
	}
	return false, nil
}
