package simd

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/pkg/mobisim"
)

// Origin says how a cell's metrics were obtained.
type Origin string

const (
	// OriginComputed is a cell simulated in a cold lockstep unit.
	OriginComputed Origin = "computed"
	// OriginComputedWarm is a cell simulated inside a prefix warm-start
	// unit: its group's shared warm-up ran once on a sentinel, and the
	// cell forked from the sentinel's checkpoint (or shared its metrics
	// outright when the sentinel never acted).
	OriginComputedWarm Origin = "computed-warm"
	// OriginMemCache is an in-memory cache hit.
	OriginMemCache Origin = "mem-cache"
	// OriginDiskCache is an on-disk cache hit.
	OriginDiskCache Origin = "disk-cache"
	// OriginDeduped means the caller attached to another caller's
	// in-flight computation of the same CellKey.
	OriginDeduped Origin = "deduped"
)

// Sample is one observer observation of a running cell, the streaming
// payload of the job SSE feed. Temperatures are °C.
type Sample struct {
	TimeS    float64 `json:"time_s"`
	MaxTempC float64 `json:"max_temp_c"`
	SensorC  float64 `json:"sensor_c"`
	TotalW   float64 `json:"total_w"`
}

// SampleFunc receives a cell's observer samples after the cell
// completes. Cache hits deliver no samples (nothing was simulated),
// forked warm cells deliver only post-fork samples, and members of a
// warm group whose sentinel never acted deliver none.
type SampleFunc func(Sample)

// maxFlightSamples bounds the per-flight sample buffer; a pathological
// trace-period configuration degrades to a truncated sample stream,
// never to unbounded memory.
const maxFlightSamples = 1 << 16

// ctxCheckSteps is the cancellation-poll granularity of a running
// unit; chunked RunSteps is byte-identical to one Run call, so the
// chunk size is a latency knob only.
const ctxCheckSteps = 4096

// SchedulerStats is an atomic snapshot of the scheduler counters.
// Computed counts every simulated cell; WarmComputed the subset
// computed inside a prefix warm-start unit; Deduped the waiters
// actually served by another caller's flight. Batched counts the
// lockstep units run and BatchLanes the cells that rode them, so
// BatchLanes/Batched is the realized mean cells per unit.
type SchedulerStats struct {
	Computed     uint64 `json:"computed"`
	WarmComputed uint64 `json:"warm_computed"`
	Deduped      uint64 `json:"deduped"`
	Batched      uint64 `json:"batched"`
	BatchLanes   uint64 `json:"batch_lanes"`
	Inflight     int    `json:"inflight"`
}

// Scheduler runs content-addressed cells at most once per CellKey:
// concurrent requests for the same key — from any job — share one
// in-flight computation (singleflight), and completed keys are served
// from the cache. Safe for concurrent use.
type Scheduler struct {
	base  context.Context
	cache *Cache

	mu      sync.Mutex
	flights map[uint64]*flight

	computed     atomic.Uint64
	warmComputed atomic.Uint64
	deduped      atomic.Uint64
	batched      atomic.Uint64
	batchLanes   atomic.Uint64

	// batch is the shared lockstep runner; its engine-shell free list
	// persists across jobs.
	batch mobisim.BatchRunner
}

// flight is one in-flight cell computation plus its waiters.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	refs int

	// Written only by the unit goroutine before close(done); read by
	// waiters after <-done (the close is the happens-before edge).
	metrics map[string]float64
	warm    bool
	samples []Sample
	err     error
}

// NewScheduler builds a scheduler over the cache. base (nil means
// Background) parents every flight's compute context: canceling it
// aborts all in-flight cells, the server's hard-shutdown path.
func NewScheduler(base context.Context, cache *Cache) *Scheduler {
	if base == nil {
		base = context.Background()
	}
	return &Scheduler{base: base, cache: cache, flights: make(map[uint64]*flight)}
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	inflight := len(s.flights)
	s.mu.Unlock()
	return SchedulerStats{
		Computed:     s.computed.Load(),
		WarmComputed: s.warmComputed.Load(),
		Deduped:      s.deduped.Load(),
		Batched:      s.batched.Load(),
		BatchLanes:   s.batchLanes.Load(),
		Inflight:     inflight,
	}
}

// awaitFlight blocks until the flight completes or ctx is canceled.
// After ctx fires, the flight gets one last non-blocking look: Go
// selects pseudo-randomly among ready cases, so the plain two-case
// select would throw away an already-completed result about half the
// time a job is canceled at the finish line. Finished work is never
// discarded.
func awaitFlight(ctx context.Context, fl *flight) error {
	select {
	case <-fl.done:
		return nil
	case <-ctx.Done():
		select {
		case <-fl.done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// join attaches the caller to the key's flight, creating it (and
// electing the caller leader) when none is in flight.
func (s *Scheduler) join(key uint64) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.flights[key]; ok {
		fl.mu.Lock()
		fl.refs++
		fl.mu.Unlock()
		return fl, false
	}
	ctx, cancel := context.WithCancel(s.base)
	fl := &flight{ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	s.flights[key] = fl
	return fl, true
}

// resolve looks a cell up in the cache and, on a miss, joins (or
// leads) its flight through joinOrHit.
func (s *Scheduler) resolve(key uint64) (map[string]float64, Tier, *flight, bool) {
	if m, tier := s.cache.Get(key); tier != TierMiss {
		return m, tier, nil, false
	}
	return s.joinOrHit(key)
}

// joinOrHit joins the key's flight and, when that makes the caller
// leader, re-checks the cache: a leader that published between the
// caller's cache miss and this join has already stored the result and
// retired its flight, and without the re-check the late caller would
// simulate the cell a second time. A re-check hit retires the flight
// just created, serving any follower that attached in the meantime the
// cached metrics, and reports the hit instead of leadership.
func (s *Scheduler) joinOrHit(key uint64) (map[string]float64, Tier, *flight, bool) {
	fl, leader := s.join(key)
	if !leader {
		return nil, TierMiss, fl, false
	}
	m, tier := s.cache.get(key, false)
	if tier == TierMiss {
		return nil, TierMiss, fl, true
	}
	fl.metrics = m
	s.retire(key, fl)
	return m, tier, nil, false
}

// leave detaches one waiter; the last one out cancels the compute
// context and retires the flight. A later request for the same key
// then starts fresh — if it races a still-unwinding unit, both produce
// identical bytes by content addressing, so the race is benign.
func (s *Scheduler) leave(key uint64, fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl.mu.Lock()
	fl.refs--
	last := fl.refs == 0
	fl.mu.Unlock()
	if last {
		fl.cancel()
		if s.flights[key] == fl {
			delete(s.flights, key)
		}
	}
}

// publish completes a leader flight: outcome fields, counters, the
// cache store, then retirement. The cache store precedes retirement,
// so a caller that finds no flight for the key finds the result in
// the cache (resolve's re-check relies on this order).
func (s *Scheduler) publish(key uint64, fl *flight, metrics map[string]float64, warm bool, err error) {
	fl.metrics, fl.warm, fl.err = metrics, warm, err
	if err == nil {
		s.computed.Add(1)
		if warm {
			s.warmComputed.Add(1)
		}
		// A disk write failure degrades to recomputation later; the
		// memory tier and this flight's waiters still have the result.
		_ = s.cache.Put(key, metrics)
	}
	s.retire(key, fl)
}

// retire broadcasts a completed flight to its waiters and removes it
// from the flight table.
func (s *Scheduler) retire(key uint64, fl *flight) {
	close(fl.done)
	fl.cancel()
	s.mu.Lock()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
	s.mu.Unlock()
}

// observerFunc adapts a closure to the engine Observer interface.
type observerFunc func(*mobisim.Sample) error

func (f observerFunc) OnSample(smp *mobisim.Sample) error { return f(smp) }
