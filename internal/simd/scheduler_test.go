package simd

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/pkg/mobisim"
)

func mustCell(t *testing.T, sc mobisim.Scenario) mobisim.Cell {
	t.Helper()
	cell, err := mobisim.CellForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// coldMetrics runs the cell's spec on a fresh engine the way the cold
// sweep path does — the reference every scheduler origin must match
// bitwise.
func coldMetrics(t *testing.T, spec mobisim.Scenario) map[string]float64 {
	t.Helper()
	eng, err := mobisim.New(spec, mobisim.WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics()
}

// runCell runs one cell through RunCellsBatched, reporting its origin:
// from the cache when the key is known, from another caller's
// in-flight run when one exists, and by simulating otherwise. tap,
// when non-nil, receives the run's observer samples.
func runCell(ctx context.Context, s *Scheduler, cell mobisim.Cell, tap SampleFunc) (map[string]float64, Origin, error) {
	var origin Origin
	metrics, _, err := s.RunCellsBatched(ctx, []mobisim.Cell{cell}, 1, 1,
		func(_ int, o Origin, _ map[string]float64) { origin = o },
		func(int) SampleFunc { return tap })
	if err != nil {
		return nil, "", err
	}
	return metrics[0], origin, nil
}

func newTestScheduler(t *testing.T) (*Scheduler, *Cache) {
	t.Helper()
	cache, err := NewCache(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(context.Background(), cache), cache
}

// TestSchedulerColdThenCached pins the basic origin ladder: first call
// computes, the second is a memory hit, a scheduler over the same dir
// with a cold memory tier hits disk — and every origin returns metrics
// bitwise-identical to a fresh cold engine run.
func TestSchedulerColdThenCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, cache := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark",
		Governor: mobisim.GovNone, DurationS: 1, Seed: 3,
	})
	want := coldMetrics(t, cell.Spec)

	var samples []Sample
	m1, origin, err := runCell(context.Background(), sched, cell, func(s Sample) { samples = append(samples, s) })
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("first run origin: %s", origin)
	}
	if !metricsBitwiseEqual(m1, want) {
		t.Fatalf("computed metrics differ from cold run:\ngot  %v\nwant %v", m1, want)
	}
	if len(samples) == 0 {
		t.Error("computed cell delivered no observer samples")
	}

	m2, origin, err := runCell(context.Background(), sched, cell, func(s Sample) { t.Error("cache hit delivered samples") })
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginMemCache || !metricsBitwiseEqual(m2, want) {
		t.Fatalf("second run: origin %s", origin)
	}

	fresh := NewScheduler(context.Background(), mustReopen(t, cache))
	m3, origin, err := runCell(context.Background(), fresh, cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDiskCache || !metricsBitwiseEqual(m3, want) {
		t.Fatalf("disk run: origin %s", origin)
	}
	if got := sched.Stats().Computed; got != 1 {
		t.Errorf("computed counter: %d, want 1", got)
	}
}

func mustReopen(t *testing.T, c *Cache) *Cache {
	t.Helper()
	fresh, err := NewCache(c.Dir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestSchedulerSingleflight is the dedup contract: concurrent requests
// for one CellKey share a single computation — the simulation
// runs exactly once, every waiter gets bitwise-identical metrics, and
// the joiners are counted as deduped.
func TestSchedulerSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	// A long-horizon cell keeps the flight open for hundreds of
	// milliseconds — orders of magnitude beyond the joiners' launch
	// latency after they observe the flight in Stats, and wide enough
	// that a descheduled poller cannot miss the whole flight.
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 120, Seed: 1,
	})
	type res struct {
		metrics map[string]float64
		origin  Origin
		err     error
	}
	results := make(chan res, 4)
	run := func() {
		m, o, err := runCell(context.Background(), sched, cell, nil)
		results <- res{m, o, err}
	}
	go run()
	deadline := time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight == 0 {
		if sched.Stats().Computed > 0 {
			t.Fatal("flight completed before the joiners launched; raise the cell's DurationS")
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 3; i++ {
		go run()
	}
	var first map[string]float64
	origins := map[Origin]int{}
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		origins[r.origin]++
		if first == nil {
			first = r.metrics
		} else if !metricsBitwiseEqual(first, r.metrics) {
			t.Error("waiters saw different metrics for one key")
		}
	}
	st := sched.Stats()
	if st.Computed != 1 {
		t.Errorf("cell simulated %d times, want exactly once", st.Computed)
	}
	if st.Deduped != 3 {
		t.Errorf("deduped counter: %d, want 3 (origins: %v)", st.Deduped, origins)
	}
	if origins[OriginComputed] != 1 || origins[OriginDeduped] != 3 {
		t.Errorf("origins: %v", origins)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight after completion: %d", st.Inflight)
	}
}

// TestJoinOrHitRechecksCache is the exactly-once pin for the window
// between a caller's cache miss and its join: a leader that publishes
// in that window (cache Put, then flight retirement) leaves neither a
// flight nor — without the re-check — a visible result, and the late
// caller would simulate the cell again. After a Put with no flight in
// the table, the join side must report the hit, not leadership, and
// leave no flight behind.
func TestJoinOrHitRechecksCache(t *testing.T) {
	sched, cache := newTestScheduler(t)
	const key = 0x5eed
	want := map[string]float64{"peak_c": 61.5}
	if err := cache.Put(key, want); err != nil {
		t.Fatal(err)
	}
	m, tier, fl, leader := sched.joinOrHit(key)
	if leader || fl != nil {
		t.Fatalf("join after a completed publish: leader=%v flight=%v, want a cache hit", leader, fl != nil)
	}
	if tier != TierMemory || !metricsBitwiseEqual(m, want) {
		t.Fatalf("re-check: tier %v metrics %v, want memory hit %v", tier, m, want)
	}
	if st := sched.Stats(); st.Inflight != 0 || st.Computed != 0 {
		t.Fatalf("re-check hit left %d flights and %d computed, want 0 and 0", st.Inflight, st.Computed)
	}
	if misses := cache.Stats().Misses; misses != 0 {
		t.Errorf("re-check counted %d misses, want 0", misses)
	}

	// A key nobody published is led as usual.
	if _, _, fl, leader := sched.joinOrHit(key + 1); !leader || fl == nil {
		t.Fatalf("unpublished key: leader=%v, want leader", leader)
	}
}

// TestSchedulerWarmComputed pins warm_computed: the cells of a job's
// prefix warm-start units report origin computed-warm and count in
// WarmComputed, and everything else is computed cold.
func TestSchedulerWarmComputed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	cells, err := mobisim.ExpandCells(mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovNone},
		LimitsC:    []float64{55, 60, 65, 70},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]mobisim.Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	units, err := mobisim.PlanBatchUnits(specs, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, u := range units {
		if u.Warm {
			warm += len(u.Idx)
		}
	}
	if warm != 8 {
		t.Fatalf("plan puts %d cells in warm units, want the 8 appaware cells", warm)
	}
	_, stats, err := sched.RunCellsBatched(context.Background(), cells, 0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.ByOrigin[OriginComputedWarm]; got != warm {
		t.Errorf("computed-warm origins: %d, want %d", got, warm)
	}
	if got := stats.ByOrigin[OriginComputed]; got != len(cells)-warm {
		t.Errorf("computed origins: %d, want %d", got, len(cells)-warm)
	}
	st := sched.Stats()
	if st.WarmComputed != uint64(warm) || st.Computed != uint64(len(cells)) {
		t.Errorf("counters: warm_computed %d computed %d, want %d and %d", st.WarmComputed, st.Computed, warm, len(cells))
	}
}

// TestSchedulerCancellation pins per-waiter cancellation: a canceled
// caller detaches with its context's error, and once the last waiter
// is gone the flight is retired.
func TestSchedulerCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 60, Seed: 9,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, _, runErr = runCell(ctx, sched, cell, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	wg.Wait()
	if runErr == nil {
		t.Fatal("canceled runCell returned no error")
	}
	deadline = time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight not retired after last waiter left")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sched.Stats().Computed; got != 0 {
		t.Errorf("canceled flight counted as computed: %d", got)
	}
}
