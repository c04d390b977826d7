package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simd"
	"repro/pkg/mobisim"
)

// layers derives serve-mixed's per-layer metrics: client-call spans,
// the daemon's own job timestamps, /v1/stats deltas over the window, a
// replay of one bulk job through mobisim's batch seam, tracing
// overhead, and the step-level layers on the bulk job's cells.
func (r *serveRun) layers(ctx context.Context, out *outcome, w *window, before, after simd.Stats, hitMS, missMS []float64) error {
	spans := out.spans
	out.layerMedian("simd.submit_ms", "ms", calls(spans, "simclient.Submit", time.Millisecond))
	out.layerMedian("simd.result_ms", "ms", calls(spans, "simclient.Result", time.Millisecond))

	jobs := append(append([]*jobRun(nil), w.bulk...), w.ia...)
	var kb, dedupMS []float64
	queueMS := make(map[jobClass][]float64)
	runMS := make(map[jobClass][]float64)
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		kb = append(kb, float64(len(j.body))/1024)
		created, e1 := time.Parse(time.RFC3339Nano, j.status.CreatedAt)
		started, e2 := time.Parse(time.RFC3339Nano, j.status.StartedAt)
		done, e3 := time.Parse(time.RFC3339Nano, j.status.DoneAt)
		if e1 != nil || e2 != nil || e3 != nil {
			return fmt.Errorf("job status timestamps: %v %v %v", e1, e2, e3)
		}
		queueMS[j.class] = append(queueMS[j.class], ms(started.Sub(created)))
		runMS[j.class] = append(runMS[j.class], ms(done.Sub(started)))
		if j.class == classJoin && j.status.Deduped > 0 {
			dedupMS = append(dedupMS, ms(done.Sub(started)))
		}
	}
	out.layerMedian("simd.result_kb", "kB", kb)
	for _, c := range []jobClass{classHit, classMiss, classBulk} {
		out.layerMedian("simd.queue_wait_ms."+string(c), "ms", queueMS[c])
		out.layerMedian("simd.run_ms."+string(c), "ms", runMS[c])
	}
	if len(dedupMS) > 0 {
		out.layer("simd.dedup_wait_ms", "ms", median(dedupMS))
	} else {
		out.unmeasure("simd.dedup_wait_ms", "no join job attached to an in-flight cell in this run")
	}

	r.statsDeltas(out, w, before, after)

	var late []float64
	for _, d := range w.late {
		late = append(late, ms(d))
	}
	out.layerMedian("gen.late_p50_ms", "ms", late)
	if len(late) > 0 {
		out.layer("gen.late_max_ms", "ms", quantile(late, 1))
	}
	for name, xs := range map[string][]float64{"serve.hit_p90_ms": hitMS, "serve.miss_p90_ms": missMS} {
		if v, ok := percentileIfReportable(xs, 0.9); ok {
			out.layer(name, "ms", v)
		} else {
			out.unmeasure(name, fmt.Sprintf("%d samples leave fewer than %d beyond p90", len(xs), minTail))
		}
	}
	out.layer("simd.refused", "count", float64(r.bulkConn.refused.Load()+r.iaConn.refused.Load()))
	out.layer("simclient.retries", "count", float64(r.bulkConn.retries.Load()+r.iaConn.retries.Load()))
	out.layer("simd.queue.depth_max", "count", float64(w.depthMax))

	var bulk *jobRun
	for _, j := range w.bulk {
		if j.err == nil {
			bulk = j
			break
		}
	}
	if bulk == nil {
		return fmt.Errorf("no bulk job completed")
	}
	specs, err := r.replayBulk(ctx, out, bulk)
	if err != nil {
		return err
	}
	if err := r.traceOverhead(ctx, out); err != nil {
		return err
	}
	step := make([]mobisim.Scenario, 0, 8)
	for i := 0; i < len(specs); i += 4 {
		step = append(step, specs[i])
	}
	return measureStepLayers(out, step, specs[:8], r.cfg.seed)
}

// statsDeltas reports the daemon's counters over the window, and the
// duplicate computes: cells simulated beyond the distinct cells the
// generator sent that were not already cached.
func (r *serveRun) statsDeltas(out *outcome, w *window, before, after simd.Stats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	hits := d(after.Cache.MemHits+after.Cache.DiskHits, before.Cache.MemHits+before.Cache.DiskHits)
	lookups := hits + d(after.Cache.Misses, before.Cache.Misses)
	if lookups > 0 {
		out.layer("simd.cache.hit_ratio", "share", hits/lookups)
	}
	out.layer("simd.cache.disk_hits", "count", d(after.Cache.DiskHits, before.Cache.DiskHits))
	out.layer("simd.cache.stores", "count", d(after.Cache.Stores, before.Cache.Stores))
	bs, as := before.Scheduler, after.Scheduler
	computed := d(as.Computed, bs.Computed)
	out.layer("simd.sched.computed", "count", computed)
	out.layer("simd.sched.warm_computed", "count", d(as.WarmComputed, bs.WarmComputed))
	out.layer("simd.sched.deduped", "count", d(as.Deduped, bs.Deduped))
	if batched := d(as.Batched, bs.Batched); batched > 0 {
		out.layer("simd.sched.lanes_per_batch", "count", d(as.BatchLanes, bs.BatchLanes)/batched)
	}

	missing := make(map[uint64]bool)
	for _, j := range append(append([]*jobRun(nil), w.bulk...), w.ia...) {
		switch {
		case j.class == classHit || j.env == nil:
		case j.matrix != nil:
			cells, err := mobisim.ExpandCells(*j.matrix)
			if err != nil {
				out.unmeasure("simd.sched.duplicate_computes", err.Error())
				return
			}
			for _, c := range cells {
				missing[c.Key] = true
			}
		default:
			c, err := mobisim.CellForScenario(*j.spec)
			if err != nil {
				out.unmeasure("simd.sched.duplicate_computes", err.Error())
				return
			}
			missing[c.Key] = true
		}
	}
	out.layer("simd.sched.duplicate_computes", "count", computed-float64(len(missing)))
}

// replayBulk runs one bulk job's matrix through mobisim's batch seam
// the way the daemon does — ExpandCells, PlanBatchUnits at the default
// width with warm start, RunUnit per unit, AggregateCells, encode — and
// checks the bytes equal the daemon's result. It returns the cells'
// specs.
func (r *serveRun) replayBulk(ctx context.Context, out *outcome, j *jobRun) ([]mobisim.Scenario, error) {
	tr := newTracer()
	const op = replayOp
	root := tr.begin(op, 0, "replay")
	var cells []mobisim.Cell
	err := tr.call(op, root, "mobisim.expand", func(int32) error {
		var err error
		cells, err = mobisim.ExpandCells(*j.matrix)
		return err
	})
	if err != nil {
		return nil, err
	}
	specs := make([]mobisim.Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	var units []mobisim.BatchPlanUnit
	err = tr.call(op, root, "mobisim.plan", func(int32) error {
		var err error
		units, err = mobisim.PlanBatchUnits(specs, mobisim.DefaultBatchWidth, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	var runner mobisim.BatchRunner
	metrics := make([]map[string]float64, len(cells))
	for _, u := range units {
		var res []map[string]float64
		err := tr.call(op, root, "mobisim.unit", func(int32) error {
			var err error
			res, err = runner.RunUnit(ctx, specs, u, mobisim.DefaultBatchWidth, mobisim.BatchRunOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		for k, i := range u.Idx {
			metrics[i] = res[k]
		}
	}
	var agg *mobisim.SweepOutput
	err = tr.call(op, root, "mobisim.aggregate", func(int32) error {
		var err error
		agg, err = mobisim.AggregateCells(cells, metrics, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.call(op, root, "mobisim.encode", func(int32) error { return agg.EncodeJSON(&buf) }); err != nil {
		return nil, err
	}
	tr.end(root)
	out.attempted++
	if !bytes.Equal(buf.Bytes(), j.body) {
		out.fail("batch-seam replay of a bulk job differs from the daemon's result")
	}
	spans := tr.closed()
	for _, name := range []string{"expand", "plan", "unit", "aggregate", "encode"} {
		out.layerMedian("mobisim."+name+"_ms", "ms", calls(spans, "mobisim."+name, time.Millisecond))
	}
	// The replay is its own op in the trace report.
	out.spans = mergeSpans(out.spans, spans, replayOp)
	return specs, unitShape(out, specs)
}

// traceOverhead alternates closed-loop rounds of eight hits and two
// misses with tracing off and on, and reports the traced rounds'
// slowdown.
func (r *serveRun) traceOverhead(ctx context.Context, out *outcome) error {
	rng := rand.New(rand.NewSource(r.cfg.seed + 2))
	var plain, traced []float64
	round := 0
	for i := 0; i < 6; i++ {
		for _, tr := range []*tracer{nil, newTracer()} {
			t0 := time.Now()
			for k := 0; k < 10; k++ {
				var env []byte
				var err error
				if k < 8 {
					env, err = scenarioEnvelope(r.hot.specs[rng.Intn(len(r.hot.specs))], fmt.Sprintf("overhead-%d-%d", round, k))
				} else {
					m := missMatrix(r.cfg.seed, 0, "3dmark+bml")
					m.BaseSeed = overheadBase(r.cfg.seed, round*10+k)
					env, err = matrixEnvelope(m)
				}
				if err != nil {
					return err
				}
				root := tr.begin(k, 0, "job")
				_, _, err = runJob(ctx, r.ia, env, tr, k, root)
				tr.end(root)
				if err != nil {
					return err
				}
			}
			round++
			if tr == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				traced = append(traced, time.Since(t0).Seconds())
			}
		}
	}
	out.layer("trace.overhead_share", "share", overheadShare(traced, plain))
	return nil
}
