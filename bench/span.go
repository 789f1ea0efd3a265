package main

// Spans. The traced run records, in memory, one span per call into a layer
// (name, layer, start, end, parent; the trace id is the job id) and writes
// them out when the run ends. A span's self time is its duration minus the
// part of that interval its children cover, so a job's self times, summed
// over its tree, account for its latency layer by layer — and what the root
// keeps for itself is the unattributed remainder.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root
	Trace  int    `json:"trace"`  // daemon lifetime × 1e6 + job id; 0 while not yet tied to a job
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	// Records is the input record count of a shard transform (0 elsewhere).
	Records int `json:"records,omitempty"`

	chain *chain // the engine run this span belongs to, until adoption
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil recorder records nothing, so the load
// generator's calls cost nothing in end-to-end runs.
type recorder struct {
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []*span
	chains map[any]*chain // dataset pointer → the engine run it flows through
	open   []*chain       // engine runs not yet tied to a job
	loose  []*span        // fleet-worker spans not yet tied to a job
	units  map[int]int64  // trace id → the job's kernel work units
	// lifetime counts the daemons launched with this recorder.
	lifetime int
	missed   int // jobs whose engine run could not be identified
}

func newRecorder() *recorder {
	return &recorder{chains: map[any]*chain{}, units: map[int]int64{}}
}

// chain is one engine run as seen from the executor decorators: datasets
// flow from stage to stage, so every stage call whose input descends from
// the same materialized dataset belongs to the same run.
type chain struct {
	first string // the first decorated stage called
	spans []*span
	// splitEnd is when the head stage's Split returned; the first Transform
	// after it closes the interval the engine spends ranking the segment.
	splitEnd int64
}

func (c *chain) bounds() (start, end int64) {
	for i, s := range c.spans {
		if i == 0 || s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// begin opens a span; the caller ends it with (*span).end on the recorder.
func (r *recorder) begin(name, layer string, c *chain) *span {
	return &span{ID: r.nextID.Add(1), Name: name, Layer: layer, Start: time.Now().UnixNano(), chain: c}
}

// finish closes a span and files it under its chain (or as a loose worker
// span when it has none).
func (r *recorder) finish(s *span) {
	s.End = time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.chain != nil {
		s.chain.spans = append(s.chain.spans, s)
	} else {
		r.loose = append(r.loose, s)
	}
}

// chainOf returns the engine run the dataset belongs to, starting one (at
// the named stage) when the dataset has not been seen: it was materialized
// by the server, outside any decorated call.
func (r *recorder) chainOf(ds any, stage string) *chain {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.chains[ds]; ok {
		return c
	}
	c := &chain{first: stage}
	r.chains[ds] = c
	r.open = append(r.open, c)
	return c
}

// follow records that a stage's output dataset continues the chain.
func (r *recorder) follow(out any, c *chain) {
	r.mu.Lock()
	r.chains[out] = c
	r.mu.Unlock()
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of the intervals, clipped to
// [lo, hi).
func covered(lo, hi int64, parts []interval) int64 {
	clipped := make([]interval, 0, len(parts))
	for _, p := range parts {
		p.lo, p.hi = max(p.lo, lo), min(p.hi, hi)
		if p.hi > p.lo {
			clipped = append(clipped, p)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, p := range clipped {
		if p.hi <= end {
			continue
		}
		total += p.hi - max(p.lo, end)
		end = p.hi
	}
	return total
}

// selfTimes returns each span's self time: its duration minus what its
// direct children cover of it. Children may overlap each other (parallel
// shards) and stick out of the parent (clock skew between client and
// server stamps); both are handled by clipping the union.
func selfTimes(spans []*span) map[int64]int64 {
	kids := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}
