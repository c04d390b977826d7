package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMatrix expands a small deterministic scenario set for pool tests.
func fakeMatrix(t *testing.T, cells, replicates int) []Scenario {
	t.Helper()
	limits := make([]float64, cells)
	for i := range limits {
		limits[i] = 50 + float64(i)
	}
	m := Matrix{
		Platforms:  []string{"fake"},
		Workloads:  []string{"fake"},
		Governors:  []string{"fake"},
		LimitsC:    limits,
		Replicates: replicates,
		DurationS:  1,
		BaseSeed:   7,
	}
	scs, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// fakeRun is a deterministic pure function of the scenario, standing in
// for a simulation.
func fakeRun(_ context.Context, sc Scenario) (map[string]float64, error) {
	return map[string]float64{
		"metric_a": sc.LimitC * float64(sc.Seed%1000),
		"metric_b": float64(sc.Index),
	}, nil
}

// runScenarios runs one task per scenario on a TaskPool, each task
// writing its own result slot — the way the cell executor uses the
// pool. It returns nil results for an empty scenario list.
func runScenarios(ctx context.Context, workers int, scenarios []Scenario, run func(context.Context, Scenario) (map[string]float64, error)) ([]Result, error) {
	if len(scenarios) == 0 {
		return nil, (&TaskPool{Workers: workers}).Run(ctx, nil)
	}
	results := make([]Result, len(scenarios))
	tasks := make([]func(ctx context.Context) error, len(scenarios))
	for i := range scenarios {
		i := i
		tasks[i] = func(ctx context.Context) error {
			m, err := run(ctx, scenarios[i])
			if err != nil {
				return err
			}
			results[i] = Result{Scenario: scenarios[i], Metrics: m}
			return nil
		}
	}
	if err := (&TaskPool{Workers: workers}).Run(ctx, tasks); err != nil {
		return nil, err
	}
	return results, nil
}

func TestPoolParityAcrossWorkerCounts(t *testing.T) {
	scenarios := fakeMatrix(t, 5, 3)
	serial, err := runScenarios(context.Background(), 1, scenarios, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			got, err := runScenarios(context.Background(), workers, scenarios, fakeRun)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Fatalf("results differ from serial run:\nserial: %+v\ngot:    %+v", serial, got)
			}
			// Byte-identical aggregated output, the pool's core contract.
			a, err := Aggregate(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Aggregate(got)
			if err != nil {
				t.Fatal(err)
			}
			aj, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if string(aj) != string(bj) {
				t.Fatalf("aggregates not byte-identical:\n%s\nvs\n%s", aj, bj)
			}
		})
	}
}

func TestPoolRunsConcurrently(t *testing.T) {
	// Sleep-bound scenarios parallelize even on a single CPU: 8
	// scenarios of 50 ms each finish in ~2 rounds on 4 workers, far
	// under the 400 ms a serial pass needs.
	scenarios := fakeMatrix(t, 8, 1)
	start := time.Now()
	_, err := runScenarios(context.Background(), 4, scenarios, func(ctx context.Context, sc Scenario) (map[string]float64, error) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return map[string]float64{"m": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("8×50ms scenarios on 4 workers took %v; pool is not concurrent", elapsed)
	}
}

// TestPoolErrorPropagation pins first-error semantics: the failing
// task's error comes back, an in-flight task sees its context
// canceled, and the queue tail is never fed.
func TestPoolErrorPropagation(t *testing.T) {
	scenarios := fakeMatrix(t, 8, 1)
	sentinel := errors.New("scenario exploded")
	firstStarted := make(chan struct{})
	var started, sawCancel atomic.Int32
	_, err := runScenarios(context.Background(), 2, scenarios, func(ctx context.Context, sc Scenario) (map[string]float64, error) {
		started.Add(1)
		switch sc.Index {
		case 0:
			// Holds one worker until the failure cancels it.
			close(firstStarted)
			select {
			case <-ctx.Done():
				sawCancel.Add(1)
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
			}
		case 1:
			<-firstStarted
			return nil, sentinel
		}
		return map[string]float64{"m": 1}, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the scenario error, got %v", err)
	}
	if sawCancel.Load() != 1 {
		t.Error("the in-flight task did not see the cancellation the error triggers")
	}
	if n := started.Load(); int(n) == len(scenarios) {
		t.Errorf("all %d scenarios started despite early failure", n)
	}
}

// TestPoolContextCancellation pins that canceling the caller's context
// mid-run stops feeding: the run returns promptly with
// context.Canceled and the queue tail never starts.
func TestPoolContextCancellation(t *testing.T) {
	scenarios := fakeMatrix(t, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan struct{})
	var err error
	go func() {
		_, err = runScenarios(ctx, 2, scenarios, func(ctx context.Context, sc Scenario) (map[string]float64, error) {
			if started.Add(1) == 2 {
				cancel() // cancel mid-sweep, from inside a scenario
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return map[string]float64{"m": 1}, nil
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); int(n) == len(scenarios) {
		t.Errorf("all %d scenarios started despite cancellation", n)
	}
}

func TestPoolEdgeCases(t *testing.T) {
	t.Run("empty scenarios", func(t *testing.T) {
		res, err := runScenarios(context.Background(), 4, nil, fakeRun)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			t.Fatalf("want nil results, got %v", res)
		}
	})
	t.Run("more workers than scenarios", func(t *testing.T) {
		res, err := runScenarios(context.Background(), 64, fakeMatrix(t, 2, 1), fakeRun)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("want 2 results, got %d", len(res))
		}
	})
	t.Run("pre-canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := runScenarios(ctx, 2, fakeMatrix(t, 4, 1), fakeRun); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}

func TestTaskPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 40)
		tasks := make([]func(ctx context.Context) error, len(out))
		for i := range tasks {
			i := i
			tasks[i] = func(ctx context.Context) error {
				out[i] = i * i
				return nil
			}
		}
		pool := &TaskPool{Workers: workers}
		if err := pool.Run(context.Background(), tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestTaskPoolEmpty(t *testing.T) {
	pool := &TaskPool{}
	if err := pool.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestTaskPoolFirstError(t *testing.T) {
	boom := fmt.Errorf("boom")
	var ran atomic.Int32
	tasks := make([]func(ctx context.Context) error, 64)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		}
	}
	pool := &TaskPool{Workers: 2}
	err := pool.Run(context.Background(), tasks)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v, want boom", err)
	}
	if n := ran.Load(); n == 64 {
		t.Fatal("error did not stop the feed")
	}
}

func TestTaskPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	pool := &TaskPool{Workers: 2}
	err := pool.Run(ctx, []func(ctx context.Context) error{
		func(ctx context.Context) error { ran = true; return nil },
	})
	if err == nil {
		t.Fatal("canceled context not reported")
	}
	_ = ran // a task may or may not start; only the error contract is pinned
}
