package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary. Times are nanoseconds since the tracer's
// epoch. Parent is 0 for an op's root span. Track 0 is the goroutine
// that runs the op; a span opened on a worker goroutine starts a track
// of its own, which its children inherit.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int    `json:"op"`
	Track  int32  `json:"track"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op returning zero ids,
// so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span on its parent's track and returns its id.
func (t *tracer) begin(op int, parent int32, name string) int32 {
	return t.open(op, parent, -1, name)
}

// fork opens a span that starts track on a worker goroutine.
func (t *tracer) fork(op int, parent, track int32, name string) int32 {
	return t.open(op, parent, track, name)
}

func (t *tracer) open(op int, parent, track int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if track < 0 {
		track = 0
		if parent != 0 {
			track = t.spans[parent-1].Track
		}
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Track: track, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(op int, parent int32, name string, fn func(id int32) error) error {
	id := t.begin(op, parent, name)
	err := fn(id)
	t.end(id)
	return err
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// mergeSpans appends src, recorded by another tracer, to dst under op,
// renumbering its ids past dst's.
func mergeSpans(dst, src []span, op int) []span {
	var off int32
	for _, s := range dst {
		off = max(off, s.ID)
	}
	for _, s := range src {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		s.Op = op
		dst = append(dst, s)
	}
	return dst
}

// unionLen returns the total length covered by the intervals, counting
// overlapping stretches once.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans on the same track cover.
// Children that overlap each other are subtracted once, and child time
// outside the parent's interval is ignored. A child on another track
// ran in parallel on a worker goroutine; the parent spent that time
// waiting for it, which stays the parent's self time, so the self
// times of an op's track-0 spans add up to the op's wall time.
func selfTimes(spans []span) map[int32]int64 {
	track := make(map[int32]int32, len(spans))
	for _, s := range spans {
		track[s.ID] = s.Track
	}
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && track[s.Parent] == s.Track {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		var clipped [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi > lo {
				clipped = append(clipped, [2]int64{lo, hi})
			}
		}
		self[s.ID] = s.dur() - unionLen(clipped)
	}
	return self
}

// selfSumTolerance is how far the self times of an op's track-0 spans
// may sum from the op's wall time, as a share of it.
const selfSumTolerance = 0.01

// opCoverage returns, for each op, the sum of the self times of its
// track-0 spans divided by its root span's wall time: 1 when every
// stretch of the op is attributed to exactly one layer.
func opCoverage(spans []span) []float64 {
	self := selfTimes(spans)
	sum := make(map[int]int64)
	wall := make(map[int]int64)
	for _, s := range spans {
		if s.Track == 0 {
			sum[s.Op] += self[s.ID]
		}
		if s.Parent == 0 {
			wall[s.Op] += s.dur()
		}
	}
	var out []float64
	for op, w := range wall {
		if w > 0 {
			out = append(out, float64(sum[op])/float64(w))
		}
	}
	return out
}

// layerStat is one span name's totals over a run.
type layerStat struct {
	Calls   int       `json:"calls"`
	SelfMS  float64   `json:"self_ms"`
	P50MS   float64   `json:"p50_ms"`
	durs    []float64 // per-call durations, ms
	selfSum int64
}

// layerStats groups spans by name: call count, summed self time and
// median call duration.
func layerStats(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.selfSum += self[s.ID]
		ls.durs = append(ls.durs, float64(s.dur())/1e6)
	}
	for _, ls := range out {
		ls.SelfMS = float64(ls.selfSum) / 1e6
		ls.P50MS = median(ls.durs)
	}
	return out
}

// calls returns the durations of every span with the given name, in
// multiples of unit.
func calls(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// traceReport is what a traced run writes to disk: every span, the
// per-name layer totals, and every per-layer metric including the ones
// that only exist on this workload.
type traceReport struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Metrics    map[string]metric     `json:"metrics"`
	Unmeasured map[string]string     `json:"unmeasured,omitempty"`
	Idle       []string              `json:"idle,omitempty"`
	Layers     map[string]*layerStat `json:"layers"`
	Spans      []span                `json:"spans"`
}

// idle records a per-layer metric of a layer this workload never calls.
func (r *traceReport) idle(name string) { r.Idle = append(r.Idle, name) }

// write stores the report under dir as <workload>-seed<seed>.json and
// returns the path.
func (r *traceReport) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Workload+"-seed"+strconv.FormatInt(r.Seed, 10)+".json")
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
