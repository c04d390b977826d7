package mobisim

import (
	"fmt"

	"repro/internal/sweep"
)

// Cell-level sweep access.
//
// RunSweep treats a matrix as one opaque unit of work; services that
// cache, dedupe or shard simulations need the unit underneath it: the
// cell — one fully-resolved scenario run, addressed by its content
// hash. ExpandCells exposes the exact expansion RunSweep executes
// (including the limit-axis collapse for limit-agnostic arms), each
// cell carrying the executable spec and its CellKey; AggregateCells is
// the exact inverse tail, folding per-cell metric sets back into the
// sweep serialization contract. An external executor that runs every
// cell of ExpandCells through the engine and feeds the metrics to
// AggregateCells produces output byte-identical to RunSweep — the
// invariant the simd daemon's content-addressed cache is built on.

// Cell is one expanded sweep point together with its content identity.
type Cell struct {
	// Index is the cell's position in the expanded matrix (0 for a
	// standalone scenario cell).
	Index int
	// Spec is the fully-resolved scenario this cell executes — for
	// matrix expansions, the same engine-facing spec RunSweep's
	// executors build (normalized, ModelOnlyBML set).
	Spec Scenario
	// Replicate numbers the seed replicate within the parameter cell.
	Replicate int
	// Key is Spec.CellKey(): the stable content hash of the executed
	// configuration. Equal keys mean byte-identical results.
	Key uint64
}

// ExpandCells expands a matrix into its content-addressed cells in the
// exact order and shape RunSweep executes: the limits axis collapsed
// for limit-agnostic governor arms, seeds derived per replicate, and
// each cell's spec identical to what the sweep executors run.
func ExpandCells(m Matrix) ([]Cell, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	scenarios, err := expandScenarios(m.sweepMatrix())
	if err != nil {
		return nil, fmt.Errorf("mobisim: %w", err)
	}
	cells := make([]Cell, len(scenarios))
	for i, sc := range scenarios {
		spec := cellSpec(sc)
		key, err := spec.CellKey()
		if err != nil {
			return nil, fmt.Errorf("mobisim: cell %d (%s): %w", sc.Index, sc.Key(), err)
		}
		cells[i] = Cell{Index: sc.Index, Spec: spec, Replicate: sc.Replicate, Key: key}
	}
	return cells, nil
}

// CellForScenario wraps one standalone scenario as a content-addressed
// cell: normalized, validated, and keyed. Unlike matrix expansion it
// does not force ModelOnlyBML — the cell executes exactly the spec the
// caller submitted, and the key addresses exactly that.
func CellForScenario(s Scenario) (Cell, error) {
	c := s.cloneRefs()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return Cell{}, err
	}
	key, err := c.CellKey()
	if err != nil {
		return Cell{}, err
	}
	return Cell{Spec: c, Key: key}, nil
}

// sweepScenario maps the cell back to the aggregation layer's identity:
// the axis fields plus replicate and seed, exactly as RunSweep's
// expansion labels its results.
func (c Cell) sweepScenario() sweep.Scenario {
	return sweep.Scenario{
		Index:     c.Index,
		Platform:  c.Spec.Platform,
		Workload:  c.Spec.Workload,
		Governor:  c.Spec.Governor,
		LimitC:    c.Spec.LimitC,
		DurationS: c.Spec.DurationS,
		Replicate: c.Replicate,
		Seed:      c.Spec.Seed,
	}
}

// AggregateCells folds per-cell metric sets (metrics[i] belongs to
// cells[i]) into a SweepOutput through the same aggregation tail
// RunSweep uses, so external executors produce byte-identical output.
func AggregateCells(cells []Cell, metrics []map[string]float64, includeRaw bool) (*SweepOutput, error) {
	if len(metrics) != len(cells) {
		return nil, fmt.Errorf("mobisim: aggregate: %d metric sets for %d cells", len(metrics), len(cells))
	}
	results := make([]sweep.Result, len(cells))
	for i, c := range cells {
		results[i] = sweep.Result{Scenario: c.sweepScenario(), Metrics: metrics[i]}
	}
	return buildSweepOutput(results, includeRaw)
}
