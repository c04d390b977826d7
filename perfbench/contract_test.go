package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestPerLayerListMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestUntracedResultCarriesEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	out := &outcome{attempted: 3, setups: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}}
	out.endToEnd(32, []float64{0.2, 0.25, 0.3})
	res, err := buildResult(config{workload: "sweep-local"}, out)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
		if m.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, m.Value)
		}
	}
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metrics %v, want %v", got, want)
		}
	}
	if v := res.Metrics["cells_per_s"].Value; v != 32*3/0.75 {
		t.Errorf("cells_per_s = %v, want cells over summed op time %v", v, 32*3/0.75)
	}
	if v := res.Metrics["p50_ms"].Value; v != 250 {
		t.Errorf("p50_ms = %v, want 250", v)
	}
}
