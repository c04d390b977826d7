package simd

import (
	"context"
	"runtime"

	"repro/internal/thermal"
	"repro/pkg/mobisim"
)

// Cell execution.
//
// RunCellsBatched is the daemon's one compute path: the cache misses a
// job leads are planned into lockstep units by the mobisim cell
// executor — grouped by thermal topology and duration, with
// limit-aware cells sharing a warm-up prefix forked from an in-memory
// sentinel checkpoint — and stepped together through the fused SoA
// kernel on pooled engines.
//
// Unit results are fed back through singleflight flights, which carry
// the scheduler contract: cross-job dedup (a follower from any job
// attaches to a lane's flight), the two-tier cache (publish stores each
// lane's metrics under its CellKey), per-lane sample taps (each lane
// gets its own observer recording into its flight), per-caller
// cancellation (a unit runs under the scheduler base and is canceled
// only when every member flight has lost its last waiter), and journal
// replay (the caller's onCell fires per completed cell). Lanes never
// interact and chunked stepping is trajectory-identical, so the
// metrics are bitwise-identical to mobisim.RunSweep's.
//
// Members of a warm group whose sentinel never acts reuse the
// sentinel's simulation outright, so their sample streams are empty —
// sample events are best-effort by contract.

// RunCellsBatched executes cells through the singleflight scheduler
// with this job's cache misses run as lockstep units of at most width
// lanes (width <= 0 selects mobisim.DefaultBatchWidth) on at most
// workers concurrent units (<= 0 uses GOMAXPROCS). The returned
// metrics are in cell order. onCell, when non-nil, fires once per
// cell in cell order from the calling goroutine; tapFor, when non-nil,
// supplies each cell's sample tap.
func (s *Scheduler) RunCellsBatched(ctx context.Context, cells []mobisim.Cell, width, workers int, onCell func(i int, origin Origin, metrics map[string]float64), tapFor func(i int) SampleFunc) ([]map[string]float64, RunStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, RunStats{}, err
	}
	metrics := make([]map[string]float64, len(cells))
	origins := make([]Origin, len(cells))

	// Phase 1: resolve each cell against the cache, joining a flight for
	// every miss. The first joiner of a key — here or in any concurrent
	// job — leads it; duplicates within this job follow their own lead.
	// Cancellation is deliberately not polled between joins: every led
	// flight must reach phase 2 so a cross-job follower that attaches in
	// the window always has a computation coming (phase 3 then unwinds a
	// canceled caller through the ordinary last-waiter-detach path).
	type pending struct {
		i      int // position in cells
		fl     *flight
		leader bool
	}
	var pend []pending
	var leaderIdx []int // pend positions of the leaders, in join order
	for i := range cells {
		m, tier, fl, leader := s.resolve(cells[i].Key)
		if tier != TierMiss {
			origins[i] = OriginMemCache
			if tier == TierDisk {
				origins[i] = OriginDiskCache
			}
			metrics[i] = m
			if onCell != nil {
				onCell(i, origins[i], m)
			}
			continue
		}
		if leader {
			leaderIdx = append(leaderIdx, len(pend))
		}
		pend = append(pend, pending{i: i, fl: fl, leader: leader})
	}

	// Phase 2: plan the led cells into units and launch them.
	if len(leaderIdx) > 0 {
		specs := make([]mobisim.Scenario, len(leaderIdx))
		keys := make([]uint64, len(leaderIdx))
		flights := make([]*flight, len(leaderIdx))
		for k, pi := range leaderIdx {
			specs[k] = cells[pend[pi].i].Spec
			keys[k] = cells[pend[pi].i].Key
			flights[k] = pend[pi].fl
		}
		units, err := mobisim.PlanBatchUnits(specs, width, true)
		if err != nil {
			// A plan failure (key derivation) fails every led flight so no
			// cross-job waiter hangs; phase 3 surfaces the error here too.
			for k := range flights {
				s.publish(keys[k], flights[k], nil, false, err)
			}
		} else {
			s.launchUnits(specs, keys, flights, units, width, workers)
		}
	}

	// Phase 3: collect, waiting on each flight like any follower does.
	// After the caller is canceled, a completed flight is still consumed
	// (awaitFlight), so finished work is never discarded.
	var firstErr error
	for _, p := range pend {
		if firstErr != nil {
			s.leave(cells[p.i].Key, p.fl)
			continue
		}
		if err := awaitFlight(ctx, p.fl); err != nil {
			s.leave(cells[p.i].Key, p.fl)
			firstErr = err
			continue
		}
		s.leave(cells[p.i].Key, p.fl)
		if p.fl.err != nil {
			firstErr = p.fl.err
			continue
		}
		if tapFor != nil {
			if tap := tapFor(p.i); tap != nil {
				for k := range p.fl.samples {
					tap(p.fl.samples[k])
				}
			}
		}
		origin := OriginComputed
		switch {
		case !p.leader:
			s.deduped.Add(1)
			origin = OriginDeduped
		case p.fl.warm:
			origin = OriginComputedWarm
		}
		origins[p.i] = origin
		metrics[p.i] = copyMetrics(p.fl.metrics)
		if onCell != nil {
			onCell(p.i, origin, metrics[p.i])
		}
	}
	if firstErr != nil {
		return nil, RunStats{}, firstErr
	}
	stats := RunStats{Total: len(cells), ByOrigin: make(map[Origin]int)}
	for i := range cells {
		stats.ByOrigin[origins[i]]++
	}
	return metrics, stats, nil
}

// launchUnits runs planned units on detached goroutines bounded by a
// workers-wide semaphore, publishing each unit's outcome into its
// member flights. Units derive their context from the scheduler base —
// not the submitting job — so a unit outlives a canceled caller while
// any cross-job waiter remains; a per-unit watcher cancels it once
// every member flight is done or abandoned (each flight context ends
// either way), after which the next poll aborts the unit within
// ctxCheckSteps steps.
func (s *Scheduler) launchUnits(specs []mobisim.Scenario, keys []uint64, flights []*flight, units []mobisim.BatchPlanUnit, width, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	for _, u := range units {
		u := u
		uctx, ucancel := context.WithCancel(s.base)
		ufl := make([]*flight, len(u.Idx))
		for k, li := range u.Idx {
			ufl[k] = flights[li]
		}
		go func() {
			for _, fl := range ufl {
				<-fl.ctx.Done()
			}
			ucancel()
		}()
		go func() {
			defer ucancel()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.runUnit(uctx, specs, keys, flights, u, width)
		}()
	}
}

// runUnit executes one unit and publishes per-lane outcomes, marking
// the cells of a warm unit as warm. Lane observers record into their
// flight's sample buffer; close(done) in publish is the happens-before
// edge to waiters.
func (s *Scheduler) runUnit(ctx context.Context, specs []mobisim.Scenario, keys []uint64, flights []*flight, u mobisim.BatchPlanUnit, width int) {
	opt := mobisim.BatchRunOptions{
		CtxCheckSteps: ctxCheckSteps,
		Observer: func(i int) mobisim.Observer {
			fl := flights[i]
			return observerFunc(func(smp *mobisim.Sample) error {
				if len(fl.samples) < maxFlightSamples {
					fl.samples = append(fl.samples, Sample{
						TimeS:    smp.TimeS,
						MaxTempC: thermal.ToCelsius(smp.MaxTempK),
						SensorC:  thermal.ToCelsius(smp.SensorK),
						TotalW:   smp.TotalW,
					})
				}
				return nil
			})
		},
	}
	out, err := s.batch.RunUnit(ctx, specs, u, width, opt)
	if err != nil {
		for _, li := range u.Idx {
			s.publish(keys[li], flights[li], nil, false, err)
		}
		return
	}
	s.batched.Add(1)
	s.batchLanes.Add(uint64(len(u.Idx)))
	for k, li := range u.Idx {
		s.publish(keys[li], flights[li], out[k], u.Warm, nil)
	}
}
