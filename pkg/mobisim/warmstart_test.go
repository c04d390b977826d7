package mobisim

import (
	"bytes"
	"context"
	"testing"
)

// TestWarmStartByteIdentity is the warm units' contract test: for
// matrices covering the fork path (limits the sentinel crosses early),
// the never-acts full-copy path, and mixed governor arms, RunSweep's
// output must be byte-identical to cold lockstep units and to one
// engine per cell, including raw per-cell metrics.
func TestWarmStartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	matrices := map[string]Matrix{
		// Sentinel acts at ~0.2s (limit 52): every other member forks
		// from an early checkpoint and simulates most of the run.
		"fork-early": {
			Platforms:  []string{PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{52, 58, 64, 70},
			Replicates: 2,
			DurationS:  3,
			BaseSeed:   1,
		},
		// No member ever acts within the horizon: the full-copy path,
		// where members share the sentinel's metrics without simulating.
		"never-acts": {
			Platforms:  []string{PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{64, 67, 70},
			Replicates: 2,
			DurationS:  2,
			BaseSeed:   7,
		},
		// Warm groups interleaved with limit-agnostic cold cells, plus a
		// second platform whose appaware cells group separately.
		"mixed-arms": {
			Platforms:  []string{PlatformOdroidXU3, PlatformNexus6P},
			Workloads:  []string{"paper.io+bml"},
			Governors:  []string{GovAppAware, GovNone},
			LimitsC:    []float64{52, 58},
			Replicates: 1,
			DurationS:  2,
			BaseSeed:   3,
		},
	}
	for name, m := range matrices {
		m := m
		t.Run(name, func(t *testing.T) {
			run := func(cfg SweepConfig) *SweepOutput {
				t.Helper()
				cfg.IncludeRaw = true
				out, err := RunSweep(context.Background(), m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			coldJSON, coldCSV := encodeSweep(t, sequentialSweep(t, m))
			unitsJSON, unitsCSV := encodeSweep(t, coldUnitsSweep(t, m, DefaultBatchWidth))
			if !bytes.Equal(coldJSON, unitsJSON) || !bytes.Equal(coldCSV, unitsCSV) {
				t.Errorf("cold lockstep units differ from one engine per cell:\ncold:\n%s\nunits:\n%s", coldJSON, unitsJSON)
			}

			warmJSON, warmCSV := encodeSweep(t, run(SweepConfig{Workers: 2}))
			if !bytes.Equal(coldJSON, warmJSON) {
				t.Errorf("warm JSON differs from cold:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
			}
			if !bytes.Equal(coldCSV, warmCSV) {
				t.Errorf("warm CSV differs from cold")
			}

			narrowJSON, narrowCSV := encodeSweep(t, run(SweepConfig{Workers: 2, BatchWidth: 1}))
			if !bytes.Equal(coldJSON, narrowJSON) || !bytes.Equal(coldCSV, narrowCSV) {
				t.Errorf("width-1 warm output differs from cold")
			}

			// Worker-count independence holds on the warm path too.
			serialJSON, _ := encodeSweep(t, run(SweepConfig{Workers: 1, BatchWidth: 3}))
			if !bytes.Equal(coldJSON, serialJSON) {
				t.Errorf("warm output depends on worker count or batch width")
			}
		})
	}
}

// TestWarmStartPlan pins the grouping policy of PlanBatchUnits: limit-
// aware cells group across the limits axis per replicate into warm
// units, limit-agnostic and singleton cells go to cold units, and every
// cell is covered exactly once.
func TestWarmStartPlan(t *testing.T) {
	m := Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware, GovIPA},
		LimitsC:    []float64{55, 60, 65},
		Replicates: 2,
		DurationS:  1,
		BaseSeed:   1,
	}
	specsOf := func(m Matrix) []Scenario {
		t.Helper()
		cells, err := ExpandCells(m)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]Scenario, len(cells))
		for i, c := range cells {
			specs[i] = c.Spec
		}
		return specs
	}
	specs := specsOf(m)
	// 2 replicates * 3 limits appaware + 2 replicates * 1 collapsed ipa.
	if len(specs) != 8 {
		t.Fatalf("expansion has %d cells, want 8", len(specs))
	}
	units, err := PlanBatchUnits(specs, DefaultBatchWidth, true)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]int)
	groups := 0
	for _, u := range units {
		for _, i := range u.Idx {
			covered[i]++
			if u.Warm != limitAware(specs[i].Governor) {
				t.Errorf("cell %d (%s, limit %g) in a unit with warm=%v", i, specs[i].Governor, specs[i].LimitC, u.Warm)
			}
		}
		if !u.Warm {
			continue
		}
		sub := make([]Scenario, len(u.Idx))
		for k, i := range u.Idx {
			sub[k] = specs[i]
		}
		parts, err := partitionWarmSpecs(sub)
		if err != nil {
			t.Fatal(err)
		}
		for g, part := range parts {
			groups++
			if len(part) != 3 {
				t.Errorf("group %d has %d members, want 3 (the limits axis)", g, len(part))
			}
			for _, k := range part {
				if sub[k].Seed != sub[part[0]].Seed {
					t.Errorf("group %d mixes seeds %d and %d", g, sub[part[0]].Seed, sub[k].Seed)
				}
			}
		}
	}
	if groups != 2 {
		t.Errorf("plan has %d warm groups, want 2 (one per replicate)", groups)
	}
	for i := range specs {
		if covered[i] != 1 {
			t.Errorf("cell %d covered %d times, want exactly once", i, covered[i])
		}
	}

	// A single-limit matrix yields singleton prefix groups: everything
	// runs in cold units.
	single := m
	single.LimitsC = []float64{55}
	units, err = PlanBatchUnits(specsOf(single), DefaultBatchWidth, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if u.Warm {
			t.Errorf("single-limit matrix formed a warm unit %v", u.Idx)
		}
	}
}

// TestWarmStartCancellation checks a sweep whose cells form a warm
// unit honors context cancellation.
func TestWarmStartCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Matrix{
		Platforms: []string{PlatformOdroidXU3},
		Workloads: []string{"3dmark+bml"},
		Governors: []string{GovAppAware},
		LimitsC:   []float64{55, 60},
		DurationS: 1,
		BaseSeed:  1,
	}
	if _, err := RunSweep(ctx, m, SweepConfig{}); err == nil {
		t.Error("canceled context should abort the warm sweep")
	}
}
