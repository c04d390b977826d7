package mobisim

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/platform/frozen"
)

// smallDieSpec is a throttling-prone spec-defined platform used by the
// registry and novel-platform sweep tests: tiny thermal masses, a weak
// path to ambient, and a low limit, so governors have real work to do
// within a 2-second differential run.
func smallDieSpec() PlatformSpec {
	spec, err := ParsePlatformSpec([]byte(`{
  "name": "smalldie-test",
  "thermal_limit_c": 40,
  "nodes": [
    {"name": "little", "capacitance_j_per_k": 0.4},
    {"name": "big", "capacitance_j_per_k": 0.5},
    {"name": "gpu", "capacitance_j_per_k": 0.5},
    {"name": "case", "capacitance_j_per_k": 4, "g_ambient_w_per_k": 0.03}
  ],
  "couplings": [
    {"a": "little", "b": "case", "g_w_per_k": 0.3},
    {"a": "big", "b": "case", "g_w_per_k": 0.3},
    {"a": "gpu", "b": "case", "g_w_per_k": 0.25}
  ],
  "domains": [
    {"id": "little", "cores": 4, "ceff_f": 1.5e-10, "idle_w": 0.02, "leak_k": 1e-4,
     "opps": [{"freq_hz": 300000000, "voltage_v": 0.8}, {"freq_hz": 900000000, "voltage_v": 0.95}, {"freq_hz": 1400000000, "voltage_v": 1.1}]},
    {"id": "big", "cores": 2, "ceff_f": 5e-10, "idle_w": 0.04, "leak_k": 3e-4,
     "opps": [{"freq_hz": 300000000, "voltage_v": 0.85}, {"freq_hz": 1000000000, "voltage_v": 1.0}, {"freq_hz": 1600000000, "voltage_v": 1.15}]},
    {"id": "gpu", "cores": 1, "ceff_f": 1.8e-9, "idle_w": 0.03, "leak_k": 2e-4,
     "opps": [{"freq_hz": 150000000, "voltage_v": 0.8}, {"freq_hz": 350000000, "voltage_v": 0.95}, {"freq_hz": 550000000, "voltage_v": 1.05}]}
  ],
  "sensor": {"node": "big", "noise_k": 0.05, "resolution_k": 0.1}
}`))
	if err != nil {
		panic(err)
	}
	return spec
}

func TestRegisterPlatform(t *testing.T) {
	spec := smallDieSpec()
	if err := RegisterPlatform(spec); err != nil {
		t.Fatal(err)
	}
	// Idempotent for an identical spec.
	if err := RegisterPlatform(spec); err != nil {
		t.Fatalf("identical re-registration rejected: %v", err)
	}
	// Conflicting redefinition is an error.
	conflict := spec.Clone()
	conflict.ThermalLimitC = 80
	if err := RegisterPlatform(conflict); err == nil {
		t.Error("conflicting re-registration accepted")
	}
	// Built-in names are reserved.
	reserved := spec.Clone()
	reserved.Name = PlatformNexus6P
	if err := RegisterPlatform(reserved); err == nil {
		t.Error("built-in name registration accepted")
	}
	// Regression: a spec with an explicit empty couplings array (every
	// node ambient-coupled) stays idempotent under re-registration —
	// cloning must not collapse empty slices to nil and break the
	// DeepEqual no-op check.
	flat, err := ParsePlatformSpec([]byte(`{
	  "name": "flatdev-test", "thermal_limit_c": 50, "couplings": [],
	  "nodes": [
	    {"name": "little", "capacitance_j_per_k": 1, "g_ambient_w_per_k": 0.05},
	    {"name": "big", "capacitance_j_per_k": 1, "g_ambient_w_per_k": 0.05},
	    {"name": "gpu", "capacitance_j_per_k": 1, "g_ambient_w_per_k": 0.05}
	  ],
	  "domains": [
	    {"id": "little", "cores": 2, "ceff_f": 1e-10, "opps": [{"freq_hz": 500000000, "voltage_v": 0.9}]},
	    {"id": "big", "cores": 2, "ceff_f": 5e-10, "opps": [{"freq_hz": 1000000000, "voltage_v": 1.0}]},
	    {"id": "gpu", "cores": 1, "ceff_f": 2e-9, "opps": [{"freq_hz": 400000000, "voltage_v": 0.95}]}
	  ],
	  "sensor": {"node": "big"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterPlatform(flat); err != nil {
		t.Fatal(err)
	}
	if err := RegisterPlatform(flat); err != nil {
		t.Errorf("identical empty-couplings re-registration rejected: %v", err)
	}

	found := false
	for _, name := range RegisteredPlatforms() {
		if name == spec.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("RegisteredPlatforms() = %v, missing %q", RegisteredPlatforms(), spec.Name)
	}
	for _, name := range KnownPlatforms() {
		if name == spec.Name {
			return
		}
	}
	t.Errorf("KnownPlatforms() = %v, missing registered %q", KnownPlatforms(), spec.Name)
}

func TestScenarioWithRegisteredAndInlinePlatform(t *testing.T) {
	spec := smallDieSpec()
	if err := RegisterPlatform(spec); err != nil {
		t.Fatal(err)
	}

	// By registered name.
	byName := Scenario{Platform: spec.Name, Workload: "gen-bursty", DurationS: 1, Seed: 3}
	byName.Normalize()
	if byName.Governor != GovNone {
		t.Errorf("custom platform governor defaulted to %q, want %q", byName.Governor, GovNone)
	}
	if err := byName.Validate(); err != nil {
		t.Fatal(err)
	}

	// Inline, platform name inherited from the spec.
	inline := Scenario{PlatformSpec: &spec, Workload: "gen-bursty", DurationS: 1, Seed: 3}
	inline.Normalize()
	if inline.Platform != spec.Name {
		t.Errorf("inline platform name not inherited: %q", inline.Platform)
	}
	if err := inline.Validate(); err != nil {
		t.Fatal(err)
	}

	// The two must simulate identically: same spec, same seed.
	run := func(s Scenario) map[string]float64 {
		t.Helper()
		eng, err := New(s, WithoutRecording())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Metrics()
	}
	mName, mInline := run(byName), run(inline)
	if len(mName) == 0 || len(mName) != len(mInline) {
		t.Fatalf("metric sets differ in shape: %v vs %v", mName, mInline)
	}
	for k, v := range mName {
		if mInline[k] != v {
			t.Errorf("metric %s: registered %v != inline %v", k, v, mInline[k])
		}
	}

	// Platform-incompatible arms stay rejected on custom platforms.
	bad := Scenario{Platform: spec.Name, Workload: "paper.io", Governor: GovStepwise, DurationS: 1}
	if err := bad.Validate(); err == nil {
		t.Error("stepwise accepted on a custom platform")
	}
	// Name mismatch between scenario and inline spec is rejected.
	mismatch := Scenario{Platform: "other", PlatformSpec: &spec, Workload: "paper.io", Governor: GovNone, DurationS: 1}
	if err := mismatch.Validate(); err == nil {
		t.Error("platform/spec name mismatch accepted")
	}
}

// TestSweepMatchesFrozenPresetConstructors is the acceptance-criteria
// differential: a dual-platform sweep run against the production
// spec-compiled presets must serialize to exactly the bytes the frozen
// pre-refactor Go constructors produce with one engine per cell — at
// the default and non-default lane widths, under GOMAXPROCS 1 and 8.
func TestSweepMatchesFrozenPresetConstructors(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	m := dualPlatformMatrix()
	run := func(cfg SweepConfig, procs int) (jsonB, csvB []byte) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg.IncludeRaw = true
		out, err := RunSweep(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encodeSweep(t, out)
	}

	// Baseline: the frozen constructors, swapped into the lookup table
	// for the duration of the reference run. Not t.Parallel-safe by
	// design; no test in this package runs parallel sweeps.
	origNexus := builtinPlatformCtors[PlatformNexus6P]
	origOdroid := builtinPlatformCtors[PlatformOdroidXU3]
	builtinPlatformCtors[PlatformNexus6P] = frozen.Nexus6P
	builtinPlatformCtors[PlatformOdroidXU3] = frozen.OdroidXU3
	wantJSON, wantCSV := encodeSweep(t, sequentialSweep(t, m))
	builtinPlatformCtors[PlatformNexus6P] = origNexus
	builtinPlatformCtors[PlatformOdroidXU3] = origOdroid

	cases := []struct {
		name  string
		cfg   SweepConfig
		procs int
	}{
		{"default width", SweepConfig{Workers: 2}, 8},
		{"width 1", SweepConfig{Workers: 2, BatchWidth: 1}, 8},
		{"default width GOMAXPROCS=1", SweepConfig{Workers: 4}, 1},
		{"width 3 GOMAXPROCS=1", SweepConfig{Workers: 4, BatchWidth: 3}, 1},
	}
	for _, tc := range cases {
		gotJSON, gotCSV := run(tc.cfg, tc.procs)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: spec-compiled sweep JSON differs from frozen constructors:\n--- spec ---\n%s\n--- frozen ---\n%s",
				tc.name, gotJSON, wantJSON)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%s: spec-compiled sweep CSV differs from frozen constructors", tc.name)
		}
	}
}

// TestNovelPlatformGeneratorSweep pins the opened scenario space: a
// sweep over a spec-defined platform running a seeded generator
// workload must serialize output byte-identical to one engine per cell
// at every worker count and lane width, including across GOMAXPROCS
// settings.
func TestNovelPlatformGeneratorSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	spec := smallDieSpec()
	if err := RegisterPlatform(spec); err != nil {
		t.Fatal(err)
	}
	m := Matrix{
		Platforms:  []string{spec.Name, PlatformOdroidXU3},
		Workloads:  []string{"gen-bursty", "gen-ramp+bml"},
		Governors:  []string{GovAppAware, GovNone},
		LimitsC:    []float64{38},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   5,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(cfg SweepConfig, procs int) (jsonB, csvB []byte) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg.IncludeRaw = true
		out, err := RunSweep(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encodeSweep(t, out)
	}
	wantJSON, wantCSV := encodeSweep(t, sequentialSweep(t, m))
	for _, tc := range []struct {
		name  string
		cfg   SweepConfig
		procs int
	}{
		{"serial", SweepConfig{Workers: 1}, 8},
		{"parallel", SweepConfig{Workers: 4}, 8},
		{"batched", SweepConfig{Workers: 2, BatchWidth: 4}, 8},
		{"batched GOMAXPROCS=1", SweepConfig{Workers: 4, BatchWidth: 4}, 1},
	} {
		gotJSON, gotCSV := run(tc.cfg, tc.procs)
		if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%s: novel-platform sweep output differs from sequential baseline", tc.name)
		}
	}
	// Seed replicates of a generator workload genuinely differ: the
	// sweep explores the stochastic space rather than rerunning one
	// script.
	out, err := RunSweep(context.Background(), Matrix{
		Platforms:  []string{spec.Name},
		Workloads:  []string{"gen-bursty"},
		Governors:  []string{GovNone},
		LimitsC:    []float64{0},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   5,
	}, SweepConfig{IncludeRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d raw results, want 2", len(out.Results))
	}
	a, b := out.Results[0].Metrics, out.Results[1].Metrics
	same := true
	for k, v := range a {
		if b[k] != v {
			same = false
		}
	}
	if same {
		t.Error("two generator seed replicates produced identical metrics; the generator is not consuming its seed")
	}
}
