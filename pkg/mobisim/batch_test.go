package mobisim

// Differential and determinism tests for the sweep's cell executor:
// one engine per cell (RunScenarioMetrics) is the oracle, and the
// lockstep executor must reproduce its serialized output byte for
// byte — across platforms, lane widths, worker counts and GOMAXPROCS
// settings.

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// dualPlatformMatrix sweeps both golden platforms through limit-aware
// and limit-agnostic arms — the nexus6p + odroid-xu3 differential
// matrix of the PR-4 acceptance criteria.
func dualPlatformMatrix() Matrix {
	return Matrix{
		Platforms:  []string{PlatformNexus6P, PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml", "paper.io"},
		Governors:  []string{GovAppAware, GovNone},
		LimitsC:    []float64{55, 65},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   7,
	}
}

// sequentialSweep is the one-engine-per-cell oracle: every cell of the
// matrix expansion runs alone on its own engine, and the metric sets
// fold through the same aggregation tail RunSweep uses.
func sequentialSweep(t *testing.T, m Matrix) *SweepOutput {
	t.Helper()
	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]map[string]float64, len(cells))
	for i, c := range cells {
		if metrics[i], err = RunScenarioMetrics(context.Background(), c.Spec); err != nil {
			t.Fatal(err)
		}
	}
	out, err := AggregateCells(cells, metrics, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// coldUnitsSweep runs the matrix as cold lockstep units only (no warm
// grouping), the reference warm units are compared against.
func coldUnitsSweep(t *testing.T, m Matrix, width int) *SweepOutput {
	t.Helper()
	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	units, err := PlanBatchUnits(specs, width, false)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]map[string]float64, len(cells))
	var runner BatchRunner
	for _, u := range units {
		if u.Warm {
			t.Fatal("cold plan formed a warm unit")
		}
		out, err := runner.RunUnit(context.Background(), specs, u, width, BatchRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range u.Idx {
			metrics[i] = out[k]
		}
	}
	out, err := AggregateCells(cells, metrics, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func encodeSweep(t *testing.T, out *SweepOutput) (jsonB, csvB []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := out.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := out.EncodeCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestBatchedSweepMatchesSequential is the executor differential: for
// every lane width — including width 1, the degenerate single-lane
// batch, and the default — the sweep's JSON and CSV bytes must equal
// the one-engine-per-cell oracle's on the nexus6p + odroid-xu3 matrix.
func TestBatchedSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	m := dualPlatformMatrix()
	run := func(cfg SweepConfig) *SweepOutput {
		t.Helper()
		cfg.IncludeRaw = true
		out, err := RunSweep(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wantJSON, wantCSV := encodeSweep(t, sequentialSweep(t, m))
	for _, width := range []int{0, 1, 3, 8} {
		gotJSON, gotCSV := encodeSweep(t, run(SweepConfig{Workers: 1, BatchWidth: width}))
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("width %d: batched JSON differs from sequential:\n--- batched ---\n%s\n--- sequential ---\n%s", width, gotJSON, wantJSON)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("width %d: batched CSV differs from sequential:\n--- batched ---\n%s\n--- sequential ---\n%s", width, gotCSV, wantCSV)
		}
	}
}

// TestBatchedSweepBytesIdenticalAcrossGOMAXPROCS pins scheduler
// independence at a non-default lane width: the serialized output must
// be byte-identical whether the runtime schedules the unit workers on
// one OS thread or eight.
func TestBatchedSweepBytesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	matrix := Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware},
		LimitsC:    []float64{55, 65},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   42,
	}
	runAt := func(procs int) (jsonB, csvB []byte) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		out, err := RunSweep(context.Background(), matrix, SweepConfig{Workers: 8, BatchWidth: 3, IncludeRaw: true})
		if err != nil {
			t.Fatal(err)
		}
		return encodeSweep(t, out)
	}
	json1, csv1 := runAt(1)
	json8, csv8 := runAt(8)
	if !bytes.Equal(json1, json8) {
		t.Errorf("batched JSON differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", json1, json8)
	}
	if !bytes.Equal(csv1, csv8) {
		t.Errorf("batched CSV differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", csv1, csv8)
	}
}

// TestBatchedSweepCancellation pins the cancellation contract at a
// non-default lane width.
func TestBatchedSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, goldenMatrix(), SweepConfig{Workers: 2, BatchWidth: 4}); err == nil {
		t.Error("canceled context should abort the batched sweep")
	}
}
