package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/mobisim"
)

// sweep-local: each op is one local sweep of 32 ten-second cells through
// mobisim.RunSweep with a zero SweepConfig, so the sweep pool and the
// per-cell engine do the work: no HTTP, no cache.

const sweepCells = 32

// goldenPath is the committed sweep golden the set-up byte-compares.
const goldenPath = "pkg/mobisim/testdata/sweep_golden.json"

// goldenMatrix is the matrix pkg/mobisim's golden test encodes.
func goldenMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{55, 65},
		Replicates: 1,
		DurationS:  2,
		BaseSeed:   1,
	}
}

// sweepMatrices returns one op's two matrices: 24 Odroid cells (16 of
// them app-aware cells in prefix-sharing groups of four) and 8 Nexus
// cells. Together they are sweepCells cells.
func sweepMatrices(base int64) []mobisim.Matrix {
	return []mobisim.Matrix{{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml", "nenamark+bml"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovIPA, mobisim.GovNone},
		LimitsC:    []float64{55, 61, 67, 73},
		Replicates: 2,
		DurationS:  10,
		BaseSeed:   base,
	}, {
		Platforms:  []string{mobisim.PlatformNexus6P},
		Workloads:  []string{"paper.io", "stickman-hook"},
		Governors:  []string{mobisim.GovStepwise, mobisim.GovNone},
		Replicates: 2,
		DurationS:  10,
		BaseSeed:   base,
	}}
}

// sweepBase is op k's base seed: every op of every run seed gets its
// own cells. k = -1 is the set-up's untimed op.
func sweepBase(seed int64, k int) int64 { return seed*10_000_000 + int64(k) + 1 }

// checkSweep verifies one sweep output: the expected number of cells
// aggregated and every statistic finite.
func checkSweep(m mobisim.Matrix, out *mobisim.SweepOutput) error {
	want := m.ExpandedSize()
	got := 0
	for _, s := range out.Summaries {
		got += s.Replicates
		for name, st := range s.Metrics {
			if !allFinite(st.Mean, st.Min, st.Max, st.P50, st.P95) {
				return fmt.Errorf("%s/%s/%s limit %g: metric %s not finite", s.Platform, s.Workload, s.Governor, s.LimitC, name)
			}
		}
	}
	if got != want {
		return fmt.Errorf("sweep aggregated %d cells, want %d", got, want)
	}
	return nil
}

// sweepOp runs one op: both matrices through RunSweep, each encoded as
// cmd/sweep would. It returns the encoded outputs.
func sweepOp(ctx context.Context, base int64, tr *tracer, op int, parent int32) ([][]byte, error) {
	var encoded [][]byte
	for _, m := range sweepMatrices(base) {
		var out *mobisim.SweepOutput
		err := tr.call(op, parent, "mobisim.RunSweep", func(int32) error {
			var err error
			out, err = mobisim.RunSweep(ctx, m, mobisim.SweepConfig{})
			return err
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.call(op, parent, "mobisim.encode", func(int32) error { return out.EncodeJSON(&buf) }); err != nil {
			return nil, err
		}
		if err := checkSweep(m, out); err != nil {
			return nil, err
		}
		encoded = append(encoded, buf.Bytes())
	}
	return encoded, nil
}

// goldenCheck byte-compares the golden matrix's sweep with the
// committed golden file.
func goldenCheck(ctx context.Context) error {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	out, err := mobisim.RunSweep(ctx, goldenMatrix(), mobisim.SweepConfig{IncludeRaw: true})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := out.EncodeJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("sweep of the golden matrix differs from %s", goldenPath)
	}
	return nil
}

func runSweepLocal(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	err := out.repeatSetup(func(bool) error {
		out.attempted++
		if err := goldenCheck(ctx); err != nil {
			out.fail("golden: %v", err)
		}
		_, err := sweepOp(ctx, sweepBase(cfg.seed, -1), nil, 0, 0)
		return err
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var opSecs []float64
	start := time.Now()
	for k := 0; time.Since(start) < cfg.window; k++ {
		out.attempted++
		t0 := time.Now()
		root := tr.begin(k, 0, "op")
		enc, err := sweepOp(ctx, sweepBase(cfg.seed, k), tr, k, root)
		if err == nil && cfg.trace {
			err = replaySweep(ctx, sweepBase(cfg.seed, k), tr, k, root, enc)
		}
		tr.end(root)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out.fail("op %d: %v", k, err)
			continue
		}
		opSecs = append(opSecs, time.Since(t0).Seconds())
	}
	if len(opSecs) == 0 {
		return out, nil
	}
	out.endToEnd(sweepCells, opSecs)
	if !cfg.trace {
		return out, nil
	}
	out.spans = tr.closed()
	if err := sweepLayers(ctx, cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replaySweep re-runs an op's cells through the cell-level API the way
// RunSweep does internally — ExpandCells, RunScenarioMetrics on
// GOMAXPROCS goroutines, AggregateCells — with a span around every
// call, and checks the bytes equal RunSweep's.
func replaySweep(ctx context.Context, base int64, tr *tracer, op int, parent int32, want [][]byte) error {
	id := tr.begin(op, parent, "replay")
	defer tr.end(id)
	var specs []mobisim.Scenario
	for i, m := range sweepMatrices(base) {
		var cells []mobisim.Cell
		err := tr.call(op, id, "mobisim.expand", func(int32) error {
			var err error
			cells, err = mobisim.ExpandCells(m)
			return err
		})
		if err != nil {
			return err
		}
		metrics, err := poolCells(ctx, cells, tr, op, id)
		if err != nil {
			return err
		}
		var agg *mobisim.SweepOutput
		err = tr.call(op, id, "mobisim.aggregate", func(int32) error {
			var err error
			agg, err = mobisim.AggregateCells(cells, metrics, false)
			return err
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := tr.call(op, id, "mobisim.encode", func(int32) error { return agg.EncodeJSON(&buf) }); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), want[i]) {
			return fmt.Errorf("cell-level replay of matrix %d differs from RunSweep", i)
		}
		for _, c := range cells {
			specs = append(specs, c.Spec)
		}
	}
	// The batched planner is not on RunSweep's default path; planning
	// the op's cells shows the unit shape a batched executor would run.
	return tr.call(op, id, "mobisim.plan", func(int32) error {
		_, err := mobisim.PlanBatchUnits(specs, 0, true)
		return err
	})
}

// poolCells runs cells on GOMAXPROCS goroutines: a "sweep.pool" span
// holds one "sweep.worker" span per goroutine, which holds one
// "sweep.cell" span per cell it ran. Metrics come back in cell order.
func poolCells(ctx context.Context, cells []mobisim.Cell, tr *tracer, op int, parent int32) ([]map[string]float64, error) {
	pool := tr.begin(op, parent, "sweep.pool")
	defer tr.end(pool)
	metrics := make([]map[string]float64, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			worker := tr.fork(op, pool, track, "sweep.worker")
			defer tr.end(worker)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				id := tr.begin(op, worker, "sweep.cell")
				metrics[i], errs[i] = mobisim.RunScenarioMetrics(ctx, cells[i].Spec)
				tr.end(id)
			}
		}(int32(w + 1))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return metrics, nil
}

// sweepLayers derives sweep-local's per-layer metrics from the spans,
// then measures tracing overhead and the step-level layers.
func sweepLayers(ctx context.Context, cfg config, out *outcome) error {
	spans := out.spans
	for _, name := range []string{"expand", "plan", "aggregate", "encode"} {
		out.layerMedian("mobisim."+name+"_ms", "ms", calls(spans, "mobisim."+name, time.Millisecond))
	}
	out.unmeasure("mobisim.unit_ms", "RunSweep with a zero SweepConfig runs the scalar pool, not batch units")
	out.layerMedian("sweep.cell_ms", "ms", calls(spans, "sweep.cell", time.Millisecond))
	busy, tail := poolShape(spans)
	out.layerMedian("sweep.worker_busy_share", "share", busy)
	out.layerMedian("sweep.tail_idle_ms", "ms", tail)

	// Unit shape and prefix sharing of one op's cells.
	var specs []mobisim.Scenario
	for _, m := range sweepMatrices(sweepBase(cfg.seed, 0)) {
		cells, err := mobisim.ExpandCells(m)
		if err != nil {
			return err
		}
		for _, c := range cells {
			specs = append(specs, c.Spec)
		}
	}
	if err := unitShape(out, specs); err != nil {
		return err
	}

	// Tracing overhead: the replay with and without spans, alternated.
	var plain, traced []float64
	base := sweepBase(cfg.seed, 0)
	want, err := sweepOp(ctx, base, nil, 0, 0)
	if err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		for _, t := range []*tracer{nil, newTracer()} {
			t0 := time.Now()
			if err := replaySweep(ctx, base, t, 0, 0, want); err != nil {
				return err
			}
			if t == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				traced = append(traced, time.Since(t0).Seconds())
			}
		}
	}
	out.layer("trace.overhead_share", "share", overheadShare(traced, plain))

	step := make([]mobisim.Scenario, 0, 8)
	for i := 0; i < len(specs); i += 4 {
		step = append(step, specs[i])
	}
	return measureStepLayers(out, step, specs[:8], cfg.seed)
}

// unitShape reports how PlanBatchUnits packs specs (default width,
// warm start on, as the daemon plans) and how many cells share a
// warm-up prefix with another cell.
func unitShape(out *outcome, specs []mobisim.Scenario) error {
	units, err := mobisim.PlanBatchUnits(specs, 0, true)
	if err != nil {
		return err
	}
	warm := 0
	for _, u := range units {
		if u.Warm {
			warm++
		}
	}
	prefixes := make(map[uint64]int)
	keys := make([]uint64, len(specs))
	for i, s := range specs {
		k, err := s.PrefixKey()
		if err != nil {
			return err
		}
		keys[i] = k
		prefixes[k]++
	}
	shared := 0
	for _, k := range keys {
		if prefixes[k] > 1 {
			shared++
		}
	}
	out.layer("mobisim.cells", "count", float64(len(specs)))
	out.layer("mobisim.units", "count", float64(len(units)))
	out.layer("mobisim.warm_units", "count", float64(warm))
	out.layer("mobisim.lanes_per_unit", "count", float64(len(specs))/float64(len(units)))
	out.layer("mobisim.prefix_shared_share", "share", float64(shared)/float64(len(specs)))
	return nil
}

// poolShape returns, per sweep.pool span, the workers' busy share
// (summed cell time over pool wall time × workers) and the tail idle
// time: pool end minus the moment the first worker found no cell left.
func poolShape(spans []span) (busy, tailMS []float64) {
	byParent := make(map[int32][]span)
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, p := range spans {
		if p.Name != "sweep.pool" || len(byParent[p.ID]) == 0 || p.dur() == 0 {
			continue
		}
		var cellSum int64
		firstIdle := p.End
		workers := byParent[p.ID]
		for _, w := range workers {
			firstIdle = min(firstIdle, w.End)
			for _, c := range byParent[w.ID] {
				cellSum += c.dur()
			}
		}
		busy = append(busy, float64(cellSum)/float64(p.dur()*int64(len(workers))))
		tailMS = append(tailMS, float64(p.End-firstIdle)/1e6)
	}
	return busy, tailMS
}
