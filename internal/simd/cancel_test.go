package simd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/pkg/mobisim"
)

// TestSentinelTailCancellation is the regression pin for the post-event
// sentinel tail of a warm unit: once the sentinel's appaware governor
// acts, the remaining horizon used to run as a single RunSteps call, so
// cancellation could not take effect until the unit finished. With the
// daemon's ctxCheckSteps the tail must honor ctx within one chunk.
func TestSentinelTailCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const cancelAtS = 60.0
	base := mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovAppAware, DurationS: 120, Seed: 1, ModelOnlyBML: true,
	}
	// The sentinel (the lowest limit) must act before the cancel point,
	// or the test would not exercise the post-event tail.
	probe := base
	probe.LimitC = 52
	probe.DurationS = cancelAtS
	eng, err := mobisim.New(probe, mobisim.WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.AppAware().EventCount() == 0 {
		t.Fatal("governor never acted before the cancel point")
	}
	stepS := eng.Sim().StepS()

	specs := []mobisim.Scenario{base, base}
	specs[0].LimitC, specs[1].LimitC = 52, 70
	units, err := mobisim.PlanBatchUnits(specs, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || !units[0].Warm {
		t.Fatalf("plan %+v, want one warm unit", units)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastSeenS float64
	opt := mobisim.BatchRunOptions{
		CtxCheckSteps: ctxCheckSteps,
		Observer: func(i int) mobisim.Observer {
			if i != 0 {
				return nil
			}
			return observerFunc(func(smp *mobisim.Sample) error {
				lastSeenS = smp.TimeS
				if smp.TimeS >= cancelAtS {
					cancel()
				}
				return nil
			})
		},
	}
	var runner mobisim.BatchRunner
	if _, err := runner.RunUnit(ctx, specs, units[0], 0, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled unit returned %v, want context.Canceled", err)
	}
	// The cancel fires mid-chunk; the engine finishes that chunk, then the
	// loop-top poll returns. Overshoot past the cancel point is therefore
	// bounded by one chunk of simulated time (plus one trace period of
	// observer latency, absorbed by the second chunk of slack).
	chunkS := float64(ctxCheckSteps) * stepS
	if maxS := cancelAtS + 2*chunkS; lastSeenS > maxS {
		t.Fatalf("sentinel ran to t=%.1fs after cancel at t=%.0fs, want <= %.1fs (one ctxCheckSteps chunk)",
			lastSeenS, cancelAtS, maxS)
	}
}

// TestAwaitFlightPrefersCompletion pins the finish-line determinism
// fix: with the flight done AND the caller canceled, awaitFlight must
// always hand back the completed result, never the cancellation — the
// naive two-case select discarded finished work pseudo-randomly.
func TestAwaitFlightPrefersCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		fl := &flight{done: make(chan struct{})}
		close(fl.done)
		if err := awaitFlight(ctx, fl); err != nil {
			t.Fatalf("iteration %d: completed flight reported %v", i, err)
		}
	}
	fl := &flight{done: make(chan struct{})}
	if err := awaitFlight(ctx, fl); !errors.Is(err, context.Canceled) {
		t.Fatalf("unfinished flight under canceled ctx returned %v", err)
	}
}

// TestDedupedNotCountedOnDetach pins the counter semantics: a follower
// that cancels before the flight completes was never served a deduped
// result, so it must not increment Deduped.
func TestDedupedNotCountedOnDetach(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 120, Seed: 5,
	})
	refs := func() int {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		for _, fl := range sched.flights {
			fl.mu.Lock()
			r := fl.refs
			fl.mu.Unlock()
			return r
		}
		return 0
	}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = runCell(lctx, sched, cell, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for refs() < 1 {
		if sched.Stats().Computed > 0 {
			t.Fatal("flight completed before the follower joined; raise DurationS")
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	var followErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followErr = runCell(fctx, sched, cell, nil)
	}()
	for refs() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(100 * time.Microsecond)
	}

	fcancel()
	// Detach the leader too so the flight dies instead of finishing the
	// 120s horizon; neither waiter was served, so Deduped must stay 0.
	lcancel()
	wg.Wait()
	if !errors.Is(followErr, context.Canceled) {
		t.Fatalf("canceled follower returned %v", followErr)
	}
	for sched.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight not retired")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sched.Stats().Deduped; got != 0 {
		t.Errorf("detached follower counted as deduped: %d, want 0", got)
	}
}
