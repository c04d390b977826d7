package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/pkg/mobisim"
)

// paper-repro: each op is one full pass over the paper's artifacts,
// through the internal/experiments functions `repro -exp all` calls, at
// the run's seed. The scalar engine does the work with recording and
// the DAQ on; there is no pool, no batching and no cache.

// artifact is one paper artifact: its name and a function that runs it
// and encodes its data product.
type artifact struct {
	name string
	// runs is how many scenario runs (cells) the artifact simulates.
	runs int
	run  func(seed int64) (string, error)
}

// cellsPerPass is the number of scenario runs in one pass.
func cellsPerPass() int {
	n := 0
	for _, a := range artifacts {
		n += a.runs
	}
	return n
}

// artifacts lists the paper's artifacts in `repro -exp all` order.
var artifacts = []artifact{
	{"fig1", 2, func(s int64) (string, error) { return tempProfile("paper.io", s) }},
	{"fig2", 2, func(s int64) (string, error) { return residency("paper.io", platform.DomGPU, s) }},
	{"fig3", 2, func(s int64) (string, error) { return tempProfile("stickman-hook", s) }},
	{"fig4", 2, func(s int64) (string, error) { return residency("stickman-hook", platform.DomGPU, s) }},
	{"fig5", 2, func(s int64) (string, error) { return tempProfile("amazon", s) }},
	{"fig6", 2, func(s int64) (string, error) { return residency("amazon", platform.DomBig, s) }},
	{"table1", 10, func(s int64) (string, error) { return encodeValue(experiments.Table1Experiment(s)) }},
	{"fig7", 0, func(int64) (string, error) {
		curves, crit, err := experiments.Fig7Experiment()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v %v", curves, crit), nil
	}},
	{"fig8", 3, func(s int64) (string, error) {
		res, err := experiments.Fig8Experiment(s)
		if err != nil {
			return "", err
		}
		return res.Alone.CSV() + res.WithBML.CSV() + res.Proposed.CSV(), nil
	}},
	{"fig9", 3, func(s int64) (string, error) { return encodeValue(experiments.Fig9Experiment(s)) }},
	{"table2", 6, func(s int64) (string, error) { return encodeValue(experiments.Table2Experiment(s)) }},
}

// encodeValue renders a pointer-free data product. %v prints floats in
// their shortest exact form and maps in key order, so equal results
// encode to equal bytes.
func encodeValue[T any](v T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", v), nil
}

func tempProfile(app string, seed int64) (string, error) {
	res, err := experiments.TempProfileExperiment(app, seed)
	if err != nil {
		return "", err
	}
	return res.AppName + "\n" + res.Without.CSV() + res.With.CSV(), nil
}

func residency(app string, dom platform.DomainID, seed int64) (string, error) {
	res, err := experiments.ResidencyExperiment(app, dom, seed)
	if err != nil {
		return "", err
	}
	return encodeValue(*res, nil)
}

// paperPass runs every artifact once, with an "experiments.<name>" span
// around each, and returns the concatenated encodings.
func paperPass(ctx context.Context, seed int64, tr *tracer, op int, parent int32) ([]byte, error) {
	var buf bytes.Buffer
	for _, a := range artifacts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var enc string
		err := tr.call(op, parent, "experiments."+a.name, func(int32) error {
			var err error
			enc, err = a.run(seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Fprintf(&buf, "== %s\n%s\n", a.name, enc)
	}
	return buf.Bytes(), nil
}

func runPaperRepro(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	err := out.repeatSetup(func(bool) error {
		if _, _, err := experiments.Fig7Experiment(); err != nil {
			return err
		}
		_, err := experiments.RunNexusApp("paper.io", true, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var passSecs []float64
	var first []byte
	start := time.Now()
	for k := 0; time.Since(start) < cfg.window; k++ {
		out.attempted++
		t0 := time.Now()
		root := tr.begin(k, 0, "op")
		enc, err := paperPass(ctx, cfg.seed, tr, k, root)
		tr.end(root)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out.fail("pass %d: %v", k, err)
			continue
		}
		passSecs = append(passSecs, time.Since(t0).Seconds())
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			out.fail("pass %d: results differ from the first pass", k)
		}
	}
	if len(passSecs) == 0 {
		return out, nil
	}
	out.endToEnd(cellsPerPass(), passSecs)
	if !cfg.trace {
		return out, nil
	}

	out.spans = tr.closed()
	for _, a := range artifacts {
		out.layerMedian("experiments."+a.name+"_s", "s", calls(out.spans, "experiments."+a.name, time.Second))
	}
	// Tracing overhead: the window's traced passes against two untraced
	// passes of the same input.
	var plain []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := paperPass(ctx, cfg.seed, nil, 0, 0); err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())
	}
	out.layer("trace.overhead_share", "share", overheadShare(passSecs, plain))

	// The paper's arms as scenarios: Nexus apps under stepwise and
	// without throttling, the Odroid 3DMark/Nenamark arms with BML
	// kernels executing for real, as the experiments run them.
	nexus := func(app, gov string) mobisim.Scenario {
		return mobisim.Scenario{Platform: mobisim.PlatformNexus6P, Workload: app, Governor: gov, DurationS: 140, Seed: cfg.seed}
	}
	odroid := func(wl, gov string, seed int64) mobisim.Scenario {
		return mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: wl, Governor: gov, DurationS: 120, Seed: seed}
	}
	cells := []mobisim.Scenario{
		nexus("paper.io", mobisim.GovStepwise), nexus("paper.io", mobisim.GovNone),
		nexus("stickman-hook", mobisim.GovStepwise), nexus("amazon", mobisim.GovStepwise),
		odroid("3dmark", mobisim.GovIPA, cfg.seed), odroid("3dmark+bml", mobisim.GovIPA, cfg.seed),
		odroid("3dmark+bml", mobisim.GovAppAware, cfg.seed), odroid("nenamark+bml", mobisim.GovAppAware, cfg.seed),
	}
	var lanes []mobisim.Scenario
	for i := int64(0); i < 8; i++ {
		lanes = append(lanes, odroid("3dmark+bml", mobisim.GovAppAware, cfg.seed+i))
	}
	if err := measureStepLayers(out, cells, lanes, cfg.seed); err != nil {
		return nil, err
	}
	return out, nil
}
