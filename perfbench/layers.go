package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rdbsc/internal/core"
	"rdbsc/internal/engine"
)

// runTraced is the -trace 1 run. Each segment is measured end to end
// against the server for its share of a quarter of the run; then exactly
// the requests it completed are replayed twice in process, once untraced
// and once traced with probes, which take about three times as long. It reports the per-layer metrics, each request
// kind's unattributed share of the end-to-end p50, and the tracing
// overhead.
func runTraced(ctx context.Context, cfg config, sp spec, dir string) (*result, error) {
	run := &e2eRun{}
	tr := newTracer(true)
	c := &counters{}
	var wallUntraced, wallTraced time.Duration
	var kinds []kind // kind of each traced request, by request index
	budget := time.Duration(cfg.seconds * float64(time.Second) / 4 / float64(segments))
	// Each segment's three passes run back to back, so a slow spell of the
	// machine hits the end-to-end and the in-process figures alike.
	for b := 0; b < segments; b++ {
		segDir := filepath.Join(dir, "seg-"+strconv.Itoa(b))
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			return nil, err
		}
		seg, err := newSegment(sp, cfg.seed, b, segDir)
		if err != nil {
			return nil, err
		}
		sr, err := runSegment(ctx, cfg, sp, seg, segDir, budget)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", b, err)
		}
		run.segs = append(run.segs, sr)
		// The untraced pass is the baseline of the tracing overhead.
		w, _, err := replay(ctx, sp, cfg.seed, b, segDir, sr.cycles, newTracer(false), &counters{}, false)
		if err != nil {
			return nil, fmt.Errorf("segment %d untraced: %w", b, err)
		}
		wallUntraced += w
		w, k, err := replay(ctx, sp, cfg.seed, b, segDir, sr.cycles, tr, c, true)
		if err != nil {
			return nil, fmt.Errorf("segment %d traced: %w", b, err)
		}
		wallTraced += w
		kinds = append(kinds, k...)
	}
	var e2e [numKinds]float64
	for k := range e2e {
		e2e[k] = median(run.latencies(kind(k)))
	}
	res := run.endToEnd()
	res.Metrics = summarize(tr.spans, kinds, c, e2e, ratio(float64(wallTraced-wallUntraced), float64(wallUntraced)))
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, cfg.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// writeSpans writes the traced pass's spans, one JSON object per line, for
// inspection beyond the summary.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			Req     int    `json:"req"`
			Parent  int    `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{s.name, s.req, s.parent, int64(s.start), int64(s.end)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay runs cycles request cycles of segment b in process and returns
// the summed wall time of the requests (probes excluded) and each request's
// kind. Request indexes continue across segments through the tracer.
func replay(ctx context.Context, sp spec, seed int64, b int, dir string, cycles int, tr *tracer, c *counters, withProbes bool) (time.Duration, []kind, error) {
	seg, err := newSegment(sp, seed, b, dir)
	if err != nil {
		return 0, nil, err
	}
	var pl plane
	if sp.shards == 1 {
		pl, err = newServePlane(seg.in, tr, c)
	} else {
		dataDir := filepath.Join(dir, "inproc")
		defer os.RemoveAll(dataDir)
		pl, err = newClusterPlane(sp, seg.in, dataDir, tr, c)
	}
	if err != nil {
		return 0, nil, err
	}
	var pr *probes
	if withProbes {
		if pr, err = newProbes(sp, seg.in, pl, tr, c); err != nil {
			return 0, nil, err
		}
	}
	base := tr.requests
	var wall time.Duration
	var kinds []kind
	for i := 0; i < cycles; i++ {
		for _, rq := range seg.next() {
			if rq.kind == kindSolve {
				if err := pl.settle(ctx); err != nil {
					return 0, nil, err
				}
			}
			start := time.Now()
			root := tr.beginRequest(base + len(kinds))
			if rq.kind == kindMutation {
				err = pl.mutate(ctx, rq, root)
			} else {
				err = pl.solve(ctx, rq, root)
			}
			tr.endRequest(root)
			wall += time.Since(start)
			if err != nil {
				return 0, nil, err
			}
			kinds = append(kinds, rq.kind)
			if rq.kind == kindMutation && rq.mut.Op == engine.OpUpsertWorker {
				c.workerUpserts++
			}
			if pr != nil {
				if err := pr.after(ctx, rq); err != nil {
					return 0, nil, err
				}
			}
		}
	}
	tr.requests += len(kinds)
	if err := pl.finish(ctx); err != nil {
		return 0, nil, err
	}
	if pr != nil {
		if err := pr.finish(ctx); err != nil {
			return 0, nil, err
		}
	}
	return wall, kinds, nil
}

// summarize turns the traced pass's spans and counters into the per-layer
// metrics. Timings are p50 self times per call; e2e holds the end-to-end
// p50 of each request kind, measured against the server on the same
// requests.
func summarize(spans []span, kinds []kind, c *counters, e2e [numKinds]float64, overhead float64) map[string]metric {
	for i := range spans {
		if spans[i].end < spans[i].start { // still open when the pass ended
			spans[i].end = spans[i].start
		}
	}
	self := selfTimes(spans)
	perCall := map[string][]float64{}
	// perReq[kind][layer][request] is the layer's summed self time in one
	// request, for the unattributed share.
	var perReq [numKinds]map[string]map[int]float64
	for k := range perReq {
		perReq[k] = map[string]map[int]float64{}
	}
	var wait []float64
	for i, s := range spans {
		perCall[s.name] = append(perCall[s.name], ms(self[i]))
		if s.req >= 0 && s.parent >= 0 {
			k := kinds[s.req]
			if perReq[k][s.name] == nil {
				perReq[k][s.name] = map[int]float64{}
			}
			perReq[k][s.name][s.req] += ms(self[i])
		}
		// applyloop.wait: from handing the mutation to the plane to the
		// loop's first step on its batch, the WAL append.
		if s.name == "store.append" && s.parent >= 0 {
			if p := spans[s.parent]; p.name == "applyloop" || p.name == "cluster.mutate" {
				wait = append(wait, ms(s.start-p.start))
			}
		}
	}
	p50 := func(name string) float64 { return median(perCall[name]) }

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("engine.snapshot_ms", p50("engine.snapshot"), "ms")
	put("engine.apply_batch_ms", p50("engine.apply_batch"), "ms")
	put("engine.snapshot_pairs", median(c.snapshotPairs), "count")
	put("engine.rebuilt_share", ratio(float64(c.rebuilt), float64(c.snapshots)), "share")
	put("grid.valid_pairs_ms", median(c.retrieveMS), "ms")
	put("grid.eta", median(c.eta), "len")
	put("core.new_problem_ms", p50("core.new_problem"), "ms")
	put("applyloop.wait_ms", median(wait), "ms")
	put("applyloop.mutations_per_batch", ratio(float64(c.applied+c.coalesced), float64(c.batches)), "count")
	put("applyloop.coalesced_share", ratio(float64(c.coalesced), float64(c.enqueued)), "share")
	put("store.append_ms", p50("store.append"), "ms")
	put("store.syncs_per_batch", ratio(float64(c.syncs), float64(c.appends)), "count")
	put("store.wal_bytes_per_mutation", ratio(float64(c.walBytes), float64(c.mutations)), "B")
	put("cluster.mutate_ms", p50("cluster.mutate"), "ms")
	put("cluster.cross_shard_move_share", ratio(float64(c.crossMoves), float64(c.workerUpserts)), "share")
	put("cluster.solve_overhead_ms", median(c.solveOverheadMS), "ms")
	put("cluster.cross_shard_pairs", median(c.crossPairs), "count")
	put("cluster.assembly_reused_share", ratio(float64(c.reused), float64(c.clusterSolves)), "share")
	put("decompose.build_ms", p50("decompose.build"), "ms")
	put("decompose.components", median(c.components), "count")
	put("decompose.max_component_pairs", median(c.maxCompPairs), "count")
	put("core.solve_ms", p50("core.solve"), "ms")
	var st core.Stats
	var evaluated []float64
	for _, s := range c.solveStats {
		st = st.Add(s)
		evaluated = append(evaluated, float64(s.PairsEvaluated))
	}
	put("core.pairs_evaluated", median(evaluated), "count")
	put("core.pruned_share", ratio(float64(st.PairsPruned), float64(st.PairsPruned+st.PairsEvaluated)), "share")
	put("core.bounds_reused_share", ratio(float64(st.BoundsReused), float64(st.BoundsReused+st.BoundsComputed)), "share")
	put("core.scratch_reused_share", ratio(float64(st.ScratchReused), float64(st.ScratchReused+st.ScratchAllocs)), "share")
	put("core.allocs_per_solve", median(c.allocs), "count")
	put("core.bytes_per_solve", median(c.allocBytes), "B")
	put("serve.solve_cache_hit_share", ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), "share")
	put("serve.encode_ms", p50("serve.encode"), "ms")
	put("serve.decode_ms", p50("serve.decode"), "ms")
	// Unattributed: the part of the end-to-end p50 that no layer's self
	// time accounts for (HTTP, the network stack, process scheduling).
	for k := kind(0); k < numKinds; k++ {
		n := 0
		for _, kk := range kinds {
			if kk == k {
				n++
			}
		}
		sum := 0.0
		for _, byReq := range perReq[k] {
			vals := make([]float64, 0, n)
			for _, v := range byReq {
				vals = append(vals, v)
			}
			for len(vals) < n { // requests that never called the layer
				vals = append(vals, 0)
			}
			sum += median(vals)
		}
		put("unattributed_share."+kindNames[k], 1-ratio(sum, e2e[k]), "share")
	}
	put("trace.overhead_share", overhead, "share")
	return m
}
