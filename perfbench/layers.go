package main

import (
	"fmt"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/pkg/mobisim"
)

// Step-level layers: the engine's step loop timed on the workload's own
// cells, and four step components timed in isolation at a mid-run
// state. The split of time inside one step needs timers inside the
// engine and is not measured here.

const (
	warmSteps  = 200  // steps run before timing, so lazy caches are built
	timedSteps = 1000 // steps per timed engine sample
	timingReps = 5    // samples per component; the median is reported
)

// sink keeps the compiler from discarding timed pure calls.
var sink float64

// nsPerCall times reps batches of n calls of fn and returns the median
// nanoseconds per call.
func nsPerCall(n int, fn func()) float64 {
	samples := make([]float64, timingReps)
	for r := range samples {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// newQuietEngine builds a scenario's engine with recording off, the
// configuration sweeps and the daemon run cells in.
func newQuietEngine(spec mobisim.Scenario) (*mobisim.Engine, error) {
	return mobisim.New(spec, mobisim.WithoutRecording())
}

// measureStepLayers reports sim.* on a sample of the workload's cells
// and on lanes (8 cells of one platform for the width-8 batch), plus
// the isolated components.
func measureStepLayers(out *outcome, cells []mobisim.Scenario, lanes []mobisim.Scenario, seed int64) error {
	var scalar, w1 []float64
	for _, spec := range cells {
		eng, err := newQuietEngine(spec)
		if err != nil {
			return err
		}
		ns, err := stepNS(eng.RunSteps, 1)
		if err != nil {
			return err
		}
		scalar = append(scalar, ns)

		eng, err = newQuietEngine(spec)
		if err != nil {
			return err
		}
		be, err := sim.NewBatchEngine([]*sim.Engine{eng.Sim()})
		if err != nil {
			return fmt.Errorf("width-1 batch of %s: %w", spec.Workload, err)
		}
		ns, err = stepNS(be.RunSteps, 1)
		if err != nil {
			return err
		}
		w1 = append(w1, ns)
	}
	out.layer("sim.scalar_ns_per_step", "ns", median(scalar))
	out.layer("sim.lane_ns_per_step.w1", "ns", median(w1))

	engines := make([]*sim.Engine, len(lanes))
	for i, spec := range lanes {
		eng, err := newQuietEngine(spec)
		if err != nil {
			return err
		}
		engines[i] = eng.Sim()
	}
	be, err := sim.NewBatchEngine(engines)
	if err != nil {
		return fmt.Errorf("width-%d batch: %w", len(lanes), err)
	}
	ns, err := stepNS(be.RunSteps, len(lanes))
	if err != nil {
		return err
	}
	out.layer("sim.lane_ns_per_step.w8", "ns", ns)
	return measureComponents(out, seed)
}

// stepNS warms an engine up and returns nanoseconds per lane-step over
// timedSteps steps.
func stepNS(runSteps func(int) error, lanes int) (float64, error) {
	if err := runSteps(warmSteps); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := runSteps(timedSteps); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(timedSteps*lanes), nil
}

// midRunSpec is the paper's Section IV scenario, present in all three
// workloads: 3DMark+BML on the Odroid under the app-aware governor.
func midRunSpec(seed int64) mobisim.Scenario {
	return mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovAppAware, DurationS: 10, Seed: seed, ModelOnlyBML: true}
}

// midRunEngine returns the Section IV engine after 5 simulated seconds.
func midRunEngine(seed int64) (*mobisim.Engine, error) {
	eng, err := newQuietEngine(midRunSpec(seed))
	if err != nil {
		return nil, err
	}
	return eng, eng.RunSteps(5000)
}

// measureComponents times the step components in isolation on engines
// stopped mid-run.
func measureComponents(out *outcome, seed int64) error {
	// The batch steps its lanes' networks away from their engines'
	// states, so it gets engines of its own.
	nets := make([]*thermal.Network, 8)
	for i := range nets {
		e, err := midRunEngine(seed + 1 + int64(i))
		if err != nil {
			return err
		}
		nets[i] = e.Platform().Net
	}
	bn, err := thermal.NewBatchNetwork(nets)
	if err != nil {
		return fmt.Errorf("thermal batch: %w", err)
	}
	powers := make([]float64, nets[0].NumNodes()*len(nets))
	for i := range powers {
		powers[i] = 0.5
	}
	var stepErr error
	ns := nsPerCall(2000, func() {
		if err := bn.Step(1e-3, powers); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	out.layer("thermal.batch_step_ns_per_lane", "ns", ns/float64(len(nets)))

	eng, err := midRunEngine(seed)
	if err != nil {
		return err
	}
	plat := eng.Platform()
	leak := plat.Model(platform.DomBig).Leakage
	v := plat.Domain(platform.DomBig).CurrentOPP().VoltageV
	t := plat.Net.TempsView()[plat.Node(platform.DomBig)]
	out.layer("power.leakage_ns", "ns", nsPerCall(200000, func() {
		t += 1e-9
		sink += leak.Power(v, t)
	}))

	gov := eng.AppAware()
	s := eng.Sim()
	out.layer("appaware.control_us", "us", nsPerCall(200, func() { gov.Control(s.Now(), s) })/1e3)

	caps := map[sched.ClusterID]sched.Capacity{
		sched.Little: {FreqHz: plat.Domain(platform.DomLittle).CurrentHz(), Cores: plat.OnlineCores(platform.DomLittle)},
		sched.Big:    {FreqHz: plat.Domain(platform.DomBig).CurrentHz(), Cores: plat.OnlineCores(platform.DomBig)},
	}
	var assignErr error
	out.layer("sched.assign_ns", "ns", nsPerCall(5000, func() {
		res, err := s.Scheduler().Assign(caps)
		if err != nil {
			assignErr = err
		}
		sink += float64(len(res.AchievedHz))
	}))
	return assignErr
}
