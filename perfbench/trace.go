package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share req; probes outside any request have req -1.
type span struct {
	name       string
	req        int
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory; they are summarized when the run ends.
// A disabled tracer records nothing, so the same replay code serves the
// traced and the untraced (overhead baseline) pass.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	requests int // requests replayed so far: the next request's index

	// cur is the span that calls made on other goroutines (the apply
	// loops, the WAL appends) nest under. The loop is closed with one
	// request in flight, so there is one such span at a time.
	cur atomic.Int64
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span under parent (-1: a probe outside any request) and
// returns its id, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	req := -1
	if parent >= 0 {
		req = t.spans[parent].req
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: start, end: -1})
	return len(t.spans) - 1
}

// beginRequest opens request i's root span and makes it current.
func (t *tracer) beginRequest(i int) int {
	if !t.on {
		return -1
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: "request", req: i, parent: -1, start: start, end: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	t.cur.Store(int64(id))
	return id
}

// nest makes id the parent of spans opened on other goroutines.
func (t *tracer) nest(id int) { t.cur.Store(int64(id)) }

// current returns the span calls on other goroutines nest under.
func (t *tracer) current() int { return int(t.cur.Load()) }

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// endRequest closes a request's root span; background calls from then on
// nest under nothing.
func (t *tracer) endRequest(id int) {
	t.end(id)
	t.cur.Store(-1)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children are clipped to their parent's
// interval, so a background call that outlived its parent reduces nothing.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := time.Duration(0), s.start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}
