package sim_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestSnapshotRestoreContinuesBitwise pins the fork primitive warm
// units are built on, at the engine layer: an engine restored from a
// mid-run snapshot — stepped alone or as a lane of a BatchEngine —
// ends in exactly the state of the uninterrupted source run. Restore
// must also invalidate the step core's scheduling memo, or the fork
// would reuse grants computed for the fresh engine's initial state.
func TestSnapshotRestoreContinuesBitwise(t *testing.T) {
	cases := []struct {
		name string
		plat string
		arm  batchArm
	}{
		{"odroid-ipa", "odroid", armIPA},
		{"odroid-appaware", "odroid", armAppAware},
		{"nexus-stepwise", "nexus", armStepwise},
	}
	const prefix, tail = 1500, 1500
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := buildBatchTestEngine(t, tc.plat, 3, tc.arm)
			if err := src.RunSteps(prefix); err != nil {
				t.Fatal(err)
			}
			blob, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := src.RunSteps(tail); err != nil {
				t.Fatal(err)
			}
			want, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			solo := buildBatchTestEngine(t, tc.plat, 3, tc.arm)
			if err := solo.RunSteps(10); err != nil { // leave a stale memo behind
				t.Fatal(err)
			}
			if err := solo.Restore(blob); err != nil {
				t.Fatal(err)
			}
			if err := solo.RunSteps(tail); err != nil {
				t.Fatal(err)
			}
			if got, err := solo.Snapshot(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("restored solo engine diverged from the uninterrupted run (err %v)", err)
			}

			lane := buildBatchTestEngine(t, tc.plat, 3, tc.arm)
			if err := lane.Restore(blob); err != nil {
				t.Fatal(err)
			}
			be, err := sim.NewBatchEngine([]*sim.Engine{lane})
			if err != nil {
				t.Fatal(err)
			}
			if err := be.RunSteps(tail); err != nil {
				t.Fatal(err)
			}
			if got, err := lane.Snapshot(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("restored batch lane diverged from the uninterrupted run (err %v)", err)
			}
		})
	}
}

// TestRestoreRejectsMalformedBlobs pins that Restore reports damaged
// input as an error instead of resuming from garbage.
func TestRestoreRejectsMalformedBlobs(t *testing.T) {
	src := buildBatchTestEngine(t, "odroid", 1, armIPA)
	if err := src.RunSteps(100); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"empty":     nil,
		"garbage":   []byte("not an engine snapshot at all"),
		"truncated": blob[:len(blob)/2],
		"trailing":  append(append([]byte(nil), blob...), 0),
	} {
		eng := buildBatchTestEngine(t, "odroid", 1, armIPA)
		if err := eng.Restore(bad); err == nil {
			t.Errorf("%s blob restored without error", name)
		}
	}
}

// TestStepAfterTaskRemoval pins that the step core notices a task-set
// change made between steps through Scheduler(): a removed task is
// reported as an unknown PID, never stepped through a stale reference.
func TestStepAfterTaskRemoval(t *testing.T) {
	eng := buildBatchTestEngine(t, "odroid", 1, armNone)
	if err := eng.RunSteps(10); err != nil {
		t.Fatal(err)
	}
	if err := eng.Scheduler().Remove(2); err != nil {
		t.Fatal(err)
	}
	err := eng.RunSteps(1)
	if err == nil || !strings.Contains(err.Error(), "unknown PID 2") {
		t.Fatalf("step after removing PID 2 returned %v, want an unknown-PID error", err)
	}
}

// TestEngineViews pins the engine's read-only views against each other
// and against the controller tick schedule: node names and per-node
// powers are indexed like the thermal network, a loaded domain reports
// utilization, recording follows the config, and the controller tick
// is pending exactly on its period.
func TestEngineViews(t *testing.T) {
	eng := buildBatchTestEngine(t, "odroid", 1, armAppAware)
	if !eng.ControllerTickPending() {
		t.Error("controller tick not pending at t=0")
	}
	if err := eng.RunSteps(1); err != nil {
		t.Fatal(err)
	}
	if eng.ControllerTickPending() {
		t.Error("controller tick still pending one step after it ran")
	}
	if err := eng.RunSteps(999); err != nil {
		t.Fatal(err)
	}
	nodes := eng.Platform().Net.NumNodes()
	names, powers := eng.NodeNames(), eng.NodePowers()
	if len(names) != nodes || len(powers) != nodes {
		t.Fatalf("views cover %d names and %d powers, want %d nodes", len(names), len(powers), nodes)
	}
	total := 0.0
	for _, p := range powers {
		total += p
	}
	if total <= 0 {
		t.Errorf("node powers sum to %v under load", total)
	}
	if u := eng.DomainUtil(platform.DomBig); u <= 0 {
		t.Errorf("big-cluster utilization %v under a big-cluster workload", u)
	}
	if eng.Recording() == nil {
		t.Error("recording engine reports no recording sink")
	}
}

// TestBatchEngineRun pins BatchEngine.Run's duration-to-step conversion
// and its rejection of durations Engine.Run rejects.
func TestBatchEngineRun(t *testing.T) {
	lanes := []*sim.Engine{
		buildBatchTestEngine(t, "odroid", 1, armIPA),
		buildBatchTestEngine(t, "odroid", 2, armNone),
	}
	be, err := sim.NewBatchEngine(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if got := be.Lanes(); len(got) != 2 || got[0] != lanes[0] || got[1] != lanes[1] {
		t.Fatalf("Lanes() = %v, want the engines the batch was built from", got)
	}
	if err := be.Run(0.25); err != nil {
		t.Fatal(err)
	}
	for i, e := range lanes {
		if math.Abs(e.Now()-0.25) > 1e-9 || e.StepS() != 0.001 {
			t.Errorf("lane %d at t=%v with step %v, want t=0.25 at 0.001", i, e.Now(), e.StepS())
		}
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300} {
		if err := be.Run(d); err == nil {
			t.Errorf("Run(%v) accepted", d)
		}
	}
}
