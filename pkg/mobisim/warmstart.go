package mobisim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/stability"
	"repro/internal/thermal"
)

// Content-addressed prefix warm-start: the warm units PlanBatchUnits
// forms.
//
// Sweep cells that differ only in the thermal limit follow bitwise-
// identical trajectories until the limit-aware governor's first
// limit-dependent control action: a control tick that takes no action
// mutates nothing that depends on the limit, and the time of the first
// action is monotone in the limit (a lower limit is crossed no later
// than a higher one). A warm unit exploits this:
//
//  1. Its cells are grouped by PrefixKey — the content hash of
//     everything but the limit — within one thermal topology and
//     duration, so one fork step count serves the whole group.
//  2. Each group's sentinel — the member with the lowest effective
//     limit — runs first, snapshotting its state once per control
//     interval while it has not yet acted. Any checkpoint taken before
//     the sentinel's first event is a state every member shares (no
//     member can act before the sentinel), so the checkpoint cadence
//     is a cost knob, not a correctness one. The sentinels of a unit's
//     groups advance together as lanes of one lockstep engine.
//  3. Every other member is built fresh, restored from its group's
//     checkpoint, and simulates only the remaining steps, packed onto
//     lockstep engines like cold units.
//  4. If a sentinel never acts, no member of its group ever acts and
//     all members are bitwise-identical runs: they share the
//     sentinel's metrics without simulating at all.
//
// Because forked members replay the exact remaining step count from a
// bitwise-exact restored state, warm output is byte-identical to
// running every cell from step zero (the sweep tests pin this).

// sentinelRun is one group's shared-prefix simulation in flight.
type sentinelRun struct {
	facade   *Engine
	aware    *AppAwareGovernor
	ckpt     []byte
	ckptStep int
	acted    bool
}

// snapshotInto refreshes the sentinel's checkpoint (reusing both the
// scratch writer and the checkpoint buffer) unless it has acted.
func (s *sentinelRun) snapshotInto(w *snapbin.Writer, step int) error {
	w.Reset()
	if err := s.facade.Sim().SnapshotTo(w); err != nil {
		return err
	}
	s.ckpt = append(s.ckpt[:0], w.Bytes()...)
	s.ckptStep = step
	return nil
}

// runWarmSpecs executes one warm unit: sentinel, checkpoint, fork. The
// unit holds one or more prefix groups sharing a thermal topology and
// duration; metric sets come back in unit order. Forked members run in
// lockstep batches of at most width lanes.
func runWarmSpecs(ctx context.Context, pool *sim.BatchPool, specs []Scenario, width int, opt batchRunOptions) ([]map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	subs, err := partitionWarmSpecs(specs)
	if err != nil {
		return nil, err
	}

	// Sentinel stage: the lowest-limit member of every subgroup runs
	// the full horizon, checkpointing once per control interval until
	// its first event. All sentinels advance in lockstep.
	sentinels := make([]*sentinelRun, len(subs))
	lanes := make([]*sim.Engine, len(subs))
	for si, sub := range subs {
		eng, err := newBatchLane(specs[sub[0]], opt.observerFor(sub[0]))
		if err != nil {
			return nil, err
		}
		aware := eng.AppAware()
		if aware == nil {
			return nil, fmt.Errorf("mobisim: warm group sentinel %d (governor %q) is not appaware", sub[0], specs[sub[0]].Governor)
		}
		sentinels[si] = &sentinelRun{facade: eng, aware: aware}
		lanes[si] = eng.Sim()
	}
	steps := int(math.Round(specs[0].DurationS / lanes[0].StepS()))
	span := int(math.Round(sentinels[0].aware.IntervalS() / lanes[0].StepS()))
	if span < 1 {
		span = 1
	}

	// The sentinels share one pooled batch engine, held across the
	// whole horizon (each RunSteps call gathers from the lane engines,
	// so mid-run lane snapshots stay coherent).
	sentinelBatch, err := pool.Get(lanes)
	if err != nil {
		return nil, err
	}
	var w snapbin.Writer
	for done := 0; done < steps; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := steps - done
		allActed := true
		for _, s := range sentinels {
			if s.acted {
				continue
			}
			allActed = false
			if err := s.snapshotInto(&w, done); err != nil {
				return nil, err
			}
		}
		if !allActed && n > span {
			// Only pace by control intervals while a checkpoint is
			// still being tracked; once every sentinel has acted the
			// rest of the horizon runs in one call.
			n = span
		}
		if opt.ctxCheckSteps > 0 && n > opt.ctxCheckSteps {
			// Cancellation-latency cap: without it the post-event tail
			// (and a pathologically long control interval) would run to
			// the horizon between ctx polls. Chunking never changes the
			// trajectory; a finer checkpoint cadence is a cost knob.
			n = opt.ctxCheckSteps
		}
		if err := sentinelBatch.RunSteps(n); err != nil {
			return nil, err
		}
		done += n
		for _, s := range sentinels {
			if !s.acted && s.aware.EventCount() > 0 {
				s.acted = true
			}
		}
	}

	out := make([]map[string]float64, len(specs))
	for si, sub := range subs {
		out[sub[0]] = sentinels[si].facade.Metrics()
	}
	pool.Put(sentinelBatch)

	// Fork stage, per subgroup: members of never-acting groups share
	// the sentinel's metrics outright (their runs would be bitwise-
	// identical); members of acting groups restore the group's
	// checkpoint and simulate the remaining steps.
	for si, sub := range subs {
		s := sentinels[si]
		members := sub[1:]
		if !s.acted {
			for _, oi := range members {
				m := make(map[string]float64, len(out[sub[0]]))
				for k, v := range out[sub[0]] {
					m[k] = v
				}
				out[oi] = m
			}
			continue
		}
		forkSteps := steps - s.ckptStep
		for start := 0; start < len(members); start += width {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			chunk := members[start:min(start+width, len(members))]
			facades := make([]*Engine, len(chunk))
			forkLanes := make([]*sim.Engine, len(chunk))
			// Forked lanes share one stability memo exactly like cold
			// lanes: they restart from a common state and feed
			// the analysis bitwise-equal inputs until their limits
			// diverge them.
			shared := stability.NewTransientCache()
			for i, oi := range chunk {
				eng, err := newBatchLane(specs[oi], opt.observerFor(oi))
				if err != nil {
					return nil, err
				}
				if err := eng.Restore(s.ckpt); err != nil {
					return nil, err
				}
				eng.AppAware().ShareTransientCache(shared)
				facades[i] = eng
				forkLanes[i] = eng.Sim()
			}
			be, err := pool.Get(forkLanes)
			if err != nil {
				return nil, err
			}
			if err := advanceChunked(ctx, be.RunSteps, forkSteps, opt.ctxCheckSteps); err != nil {
				return nil, err
			}
			for i, oi := range chunk {
				out[oi] = facades[i].Metrics()
			}
			pool.Put(be)
		}
	}
	return out, nil
}

// partitionWarmSpecs splits a warm unit into its prefix subgroups,
// each ordered by effective thermal limit ascending (sentinel first).
// Subgroup membership is re-derived from the same content keys the
// planner used, so a unit of several groups partitions exactly as
// planned.
func partitionWarmSpecs(specs []Scenario) ([][]int, error) {
	byKey := make(map[uint64][]int)
	var order []uint64
	for i, spec := range specs {
		prefix, err := spec.PrefixKey()
		if err != nil {
			return nil, err
		}
		if _, seen := byKey[prefix]; !seen {
			order = append(order, prefix)
		}
		byKey[prefix] = append(byKey[prefix], i)
	}
	// Named-platform defaults are memoized per name so a unit does not
	// rebuild the same platform per member.
	effLimit := make([]float64, len(specs))
	defaults := make(map[string]float64)
	for i := range specs {
		spec := specs[i]
		if spec.LimitC == 0 && spec.PlatformSpec == nil {
			if d, ok := defaults[spec.Platform]; ok {
				effLimit[i] = d
				continue
			}
		}
		l, err := effectiveLimitC(spec)
		if err != nil {
			return nil, err
		}
		effLimit[i] = l
		if spec.LimitC == 0 && spec.PlatformSpec == nil {
			defaults[spec.Platform] = l
		}
	}
	subs := make([][]int, 0, len(order))
	for _, key := range order {
		sub := byKey[key]
		sort.SliceStable(sub, func(a, b int) bool { return effLimit[sub[a]] < effLimit[sub[b]] })
		subs = append(subs, sub)
	}
	return subs, nil
}

// effectiveLimitC resolves the thermal limit a scenario actually runs
// under: an explicit LimitC wins, otherwise the platform default. An
// inline spec's default goes through the same Celsius-Kelvin-Celsius
// round-trip the compiled platform applies, so the ordering this
// produces matches the limits the engine enforces bitwise.
func effectiveLimitC(spec Scenario) (float64, error) {
	if spec.LimitC != 0 {
		return spec.LimitC, nil
	}
	if spec.PlatformSpec != nil {
		return thermal.ToCelsius(thermal.ToKelvin(spec.PlatformSpec.ThermalLimitC)), nil
	}
	plat, err := LookupPlatform(spec.Platform, spec.Seed)
	if err != nil {
		return 0, err
	}
	return thermal.ToCelsius(plat.ThermalLimitK()), nil
}
