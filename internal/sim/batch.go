// The step core and batched lockstep execution. Every engine steps
// through stepPre (demand, governors, controller, scheduling, power,
// metering), a thermal integration, and stepPost (DVFS advance,
// workload consumption, observation). A solo Engine integrates its own
// network between the halves; a BatchEngine steps B independent
// engines together and integrates all their networks in one fused
// structure-of-arrays pass, so a sweep pays the O(m²) thermal kernel
// once per batch, cache-hot, instead of once per engine. The
// per-lane bookkeeping runs on flat index-addressed caches instead of
// the map-backed boundary APIs.
//
// Lanes never interact: every float64 a lane computes is produced by
// the same operations in the same order as a solo run, so a batched
// lane is bitwise-identical to a solo engine. TestBatchMatchesScalar
// pins the fused kernel against the scalar Network.Step, and the
// frozen pre-refactor step loop in frozen_diff_test.go pins the core
// itself.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// fastPath is the flat, index-addressed view of an engine's per-step
// state: everything the step reaches through a map or an error-checked
// accessor, resolved once. Built lazily by initFast; the task-aligned
// slices are re-resolved whenever the scheduler's task-set epoch moves.
type fastPath struct {
	ready bool

	govs   [3]governor.Governor
	doms   [3]*dvfs.Domain
	models [3]*power.DomainModel
	nodes  [3]thermal.NodeID
	rails  [3]power.Rail

	temps   []float64 // live read-only view of the thermal network state
	memNode thermal.NodeID
	hasMem  bool

	// Aligned with Engine.apps; refreshed on scheduler epoch changes.
	tasks   []*sched.Task
	slots   []int // assignment slot per app (-1 when unknown)
	windows []*stats.Window
	epoch   uint64

	// sample carries the per-step power reading from stepPre to
	// stepPost across the thermal integration.
	sample power.Sample

	// Scheduling memo. One step's assignment is a pure function of the
	// task demands/placements and the cluster capacities, and those
	// inputs are piecewise-constant (demands change on workload frame
	// boundaries, capacities on DVFS transitions), so most steps can
	// reuse the previous assignment verbatim — bitwise-equal by purity
	// — instead of recomputing it. sigValid gates the memo; it stays
	// false whenever the scheduler holds tasks the engine does not own,
	// whose demands the signature could not observe.
	sigValid   bool
	sigCaps    [2]sched.Capacity
	sigDemand  []float64
	sigCluster []sched.ClusterID
	sigRT      []bool
}

// StepS returns the engine's fixed integration step in seconds.
func (e *Engine) StepS() float64 { return e.cfg.StepS }

// initFast resolves the flat caches. Idempotent.
func (e *Engine) initFast() {
	fp := &e.fast
	if fp.ready {
		return
	}
	for _, id := range domainIDs {
		fp.govs[id] = e.cfg.Governors[id]
		fp.doms[id] = e.plat.Domain(id)
		fp.models[id] = e.plat.Model(id)
		fp.nodes[id] = e.plat.Node(id)
		fp.rails[id] = e.plat.Rail(id)
	}
	fp.temps = e.plat.Net.TempsView()
	fp.memNode, fp.hasMem = e.plat.NodeByName("mem")
	fp.windows = make([]*stats.Window, len(e.apps))
	for i, a := range e.apps {
		fp.windows[i] = e.taskPower[a.PID]
	}
	fp.tasks = make([]*sched.Task, len(e.apps))
	fp.slots = make([]int, len(e.apps))
	fp.sigDemand = make([]float64, len(e.apps))
	fp.sigCluster = make([]sched.ClusterID, len(e.apps))
	fp.sigRT = make([]bool, len(e.apps))
	fp.refreshTasks(e)
	fp.ready = true
}

// refreshTasks re-resolves the task pointers and assignment slots after
// a task-set layout change. Slots are positions in the scheduler's
// ascending-PID order — exactly the layout Assignment.sync stores its
// flat grants in — so slot i here indexes the assignment's grant
// arrays once AssignInto has synced to the same epoch.
func (fp *fastPath) refreshTasks(e *Engine) {
	for i, a := range e.apps {
		t, ok := e.sched.TaskRef(a.PID)
		if !ok {
			fp.tasks[i] = nil
			fp.slots[i] = -1
			continue
		}
		fp.tasks[i] = t
		fp.slots[i] = e.sched.Slot(a.PID)
	}
	fp.epoch = e.sched.Epoch()
	fp.sigValid = false
}

// stepPre runs the step's phases up to — and excluding — the thermal
// integration: demand, CPUfreq governors, thermal governor,
// controller, scheduling, GPU sharing, power, attribution, metering.
// It leaves the per-node power injection in e.powers and the power
// sample in e.fast.sample for stepPost.
func (e *Engine) stepPre() error {
	fp := &e.fast
	dt := e.cfg.StepS
	now := e.now
	if fp.epoch != e.sched.Epoch() {
		// The task set changed between steps (a caller added or removed
		// a task through Scheduler()); re-resolve before touching it.
		fp.refreshTasks(e)
	}

	// 1. Application demand.
	totalGPUDemand := 0.0
	anyTouch := false
	for i, a := range e.apps {
		d := a.App.Demand(now)
		t := fp.tasks[i]
		if t == nil {
			return fmt.Errorf("sched: unknown PID %d", a.PID)
		}
		if d.CPUHz < 0 || math.IsNaN(d.CPUHz) {
			return fmt.Errorf("sched: demand must be >= 0, got %v", d.CPUHz)
		}
		t.DemandHz = d.CPUHz
		e.gpuDemand[i] = 0
		if d.GPUHz > 0 {
			e.gpuDemand[i] = d.GPUHz
			totalGPUDemand += d.GPUHz
		}
		if d.Touch {
			anyTouch = true
		}
	}
	if anyTouch {
		for i := range e.touched {
			e.touched[i] = true
		}
	}

	// 2. CPUfreq governors on their own periods.
	for _, id := range domainIDs {
		if now+1e-12 < e.nextGovS[id] {
			continue
		}
		gov := fp.govs[id]
		util, load := e.lastUtil[id], e.lastLoad[id]
		if e.utilTime[id] > 0 {
			util = e.utilAccum[id] / e.utilTime[id]
			load = e.loadAccum[id] / e.utilTime[id]
		}
		dom := fp.doms[id]
		freq := gov.Decide(governor.Input{
			NowS:        now,
			UtilCores:   util,
			MaxCoreLoad: load,
			OnlineCores: e.plat.OnlineCores(id),
			Touch:       e.touched[id],
		}, dom)
		dom.Request(now, freq)
		e.utilAccum[id], e.loadAccum[id], e.utilTime[id] = 0, 0, 0
		e.touched[id] = false
		e.nextGovS[id] = now + gov.IntervalS()
	}

	// 3. Thermal governor on its period, acting on the sensed temperature.
	if e.cfg.Thermal != nil && now+1e-12 >= e.nextThermS {
		sensedK := e.SensorTempK()
		for i, id := range domainIDs {
			e.thermStates[i].UtilCores = e.lastUtil[id]
			e.thermStates[i].TempK = fp.temps[fp.nodes[id]]
			e.thermStates[i].OnlineCores = e.plat.OnlineCores(id)
		}
		e.cfg.Thermal.Control(now, sensedK, e.thermStates)
		e.nextThermS = now + e.cfg.Thermal.IntervalS()
	}

	// 4. Custom controller (the paper's governor) on its period.
	if e.cfg.Controller != nil && now+1e-12 >= e.nextCtrlS {
		e.cfg.Controller.Control(now, e)
		e.nextCtrlS = now + e.cfg.Controller.IntervalS()
	}

	// 5. CPU scheduling under current capacities, memoized: when every
	// assignment input — capacities, per-task demand, placement and
	// real-time flag — matches the previous step's, the previous grants
	// are still exact (scheduling is a pure function of those inputs),
	// so e.assign is left holding them untouched. The memo is bypassed
	// whenever the scheduler holds tasks beyond the engine's own apps:
	// their demands are outside the signature.
	little := sched.Capacity{FreqHz: fp.doms[platform.DomLittle].CurrentHz(), Cores: e.plat.OnlineCores(platform.DomLittle)}
	big := sched.Capacity{FreqHz: fp.doms[platform.DomBig].CurrentHz(), Cores: e.plat.OnlineCores(platform.DomBig)}
	fresh := !fp.sigValid ||
		little != fp.sigCaps[0] || big != fp.sigCaps[1] ||
		e.sched.Len() != len(e.apps) ||
		e.sched.Epoch() != fp.epoch
	if !fresh {
		for i, t := range fp.tasks {
			if t.DemandHz != fp.sigDemand[i] || t.Cluster != fp.sigCluster[i] || t.RealTime != fp.sigRT[i] {
				fresh = true
				break
			}
		}
	}
	if fresh {
		if err := e.sched.AssignInto(little, big, &e.assign); err != nil {
			return err
		}
		// Controllers can add or remove tasks; re-resolve the
		// task-aligned caches whenever the layout epoch moved. This
		// runs after AssignInto so slots always describe the
		// just-synced assignment.
		if fp.epoch != e.sched.Epoch() {
			fp.refreshTasks(e)
		}
		if e.sched.Len() == len(e.apps) {
			fp.sigCaps[0], fp.sigCaps[1] = little, big
			for i, t := range fp.tasks {
				if t == nil {
					fp.sigValid = false
					break
				}
				fp.sigDemand[i] = t.DemandHz
				fp.sigCluster[i] = t.Cluster
				fp.sigRT[i] = t.RealTime
				fp.sigValid = true
			}
		} else {
			fp.sigValid = false
		}
	}
	res := &e.assign

	// 6. GPU sharing: proportional to demand under the single GPU queue.
	gpuFreq := float64(fp.doms[platform.DomGPU].CurrentHz())
	for i := range e.gpuAchieved {
		e.gpuAchieved[i] = 0
	}
	gpuGrantTotal := 0.0
	if totalGPUDemand > 0 && gpuFreq > 0 {
		scale := 1.0
		if totalGPUDemand > gpuFreq {
			scale = gpuFreq / totalGPUDemand
		}
		// Accumulate in app-spec order: float addition is not
		// associative, and same-seed runs must be bitwise identical.
		for i := range e.apps {
			d := e.gpuDemand[i]
			if d == 0 {
				continue
			}
			g := d * scale
			e.gpuAchieved[i] = g
			gpuGrantTotal += g
		}
	}

	// 7. Per-domain power at current temperatures.
	utilCores := [3]float64{
		res.UtilCores(sched.Little),
		res.UtilCores(sched.Big),
		0,
	}
	if gpuFreq > 0 {
		utilCores[platform.DomGPU] = gpuGrantTotal / gpuFreq
	}
	maxLoad := [3]float64{}
	for i := range e.apps {
		task := fp.tasks[i]
		if task == nil {
			continue
		}
		var domID platform.DomainID
		switch task.Cluster {
		case sched.Little:
			domID = platform.DomLittle
		case sched.Big:
			domID = platform.DomBig
		default:
			continue
		}
		freq := float64(fp.doms[domID].CurrentHz())
		if freq <= 0 {
			continue
		}
		perCore := res.AchievedHzAt(fp.slots[i]) / (float64(task.Threads) * freq)
		if perCore > 1 {
			perCore = 1
		}
		if perCore > maxLoad[domID] {
			maxLoad[domID] = perCore
		}
	}

	sample := &fp.sample
	*sample = power.Sample{TimeS: now}
	totalAchievedHz := gpuGrantTotal
	for i := range e.apps {
		totalAchievedHz += res.AchievedHzAt(fp.slots[i])
	}
	domDynamic := [3]float64{}
	for i := range e.powers {
		e.powers[i] = 0
	}
	for _, id := range domainIDs {
		model := fp.models[id]
		opp := fp.doms[id].CurrentOPP()
		nodeK := fp.temps[fp.nodes[id]]
		dyn := model.Dynamic(opp, utilCores[id])
		tot := dyn + model.IdleW + model.Leakage.Power(opp.VoltageV, nodeK)
		domDynamic[id] = dyn
		sample.W[fp.rails[id]] += tot
		e.powers[fp.nodes[id]] += tot
		load := maxLoad[id]
		if id == platform.DomGPU {
			load = utilCores[id]
		}
		e.lastUtil[id] = utilCores[id]
		e.lastLoad[id] = load
		e.utilAccum[id] += utilCores[id] * dt
		e.loadAccum[id] += load * dt
		e.utilTime[id] += dt
	}
	memW := e.plat.MemPower(totalAchievedHz)
	sample.W[power.RailMem] += memW
	if fp.hasMem {
		e.powers[fp.memNode] += memW
	}
	dynTotal := memW
	for _, id := range domainIDs {
		dynTotal += domDynamic[id] + fp.models[id].IdleW
	}
	e.dynWindow.Push(dynTotal)

	// 8. Per-task power attribution.
	for i := range e.apps {
		task := fp.tasks[i]
		if task == nil {
			continue
		}
		var p float64
		switch task.Cluster {
		case sched.Little:
			p += domDynamic[platform.DomLittle] * res.BusyShareAt(fp.slots[i])
		case sched.Big:
			p += domDynamic[platform.DomBig] * res.BusyShareAt(fp.slots[i])
		}
		if gpuGrantTotal > 0 {
			p += domDynamic[platform.DomGPU] * e.gpuAchieved[i] / gpuGrantTotal
		}
		fp.windows[i].Push(p)
	}

	// 9a. Accounting that precedes thermal integration: meter and DAQ.
	if err := e.meter.Record(*sample, dt); err != nil {
		return err
	}
	if e.cfg.DAQ != nil {
		if err := e.cfg.DAQ.Observe(now, dt, sample.Total()); err != nil {
			return err
		}
	}
	return nil
}

// stepPost runs the step's phases after the thermal integration: DVFS
// advance, workload consumption, peak tracking, and trace-period sample
// publication.
func (e *Engine) stepPost() error {
	fp := &e.fast
	dt := e.cfg.StepS
	now := e.now
	res := &e.assign

	// 9b. DVFS transitions complete and residency accrues.
	for _, id := range domainIDs {
		fp.doms[id].Advance(now, dt)
	}

	// 10. Applications consume their grants.
	for i, a := range e.apps {
		a.App.Advance(now, dt, workload.Resources{
			CPUSpeedHz: res.AchievedHzAt(fp.slots[i]),
			GPUSpeedHz: e.gpuAchieved[i],
		})
	}

	// 11. Observation. The max scan mirrors Network.MaxTemperature so
	// ties resolve to the same node.
	maxK := fp.temps[0]
	for _, t := range fp.temps {
		if t > maxK {
			maxK = t
		}
	}
	if maxK > e.maxTempSeen {
		e.maxTempSeen = maxK
	}
	if now+1e-12 >= e.nextTraceS {
		if err := e.publishSample(now, fp.sample); err != nil {
			return err
		}
		e.nextTraceS = now + e.cfg.TracePeriodS
	}

	e.stepCount++
	e.now = float64(e.stepCount) * dt
	return nil
}

// BatchEngine advances B independent engines in lockstep, fusing the
// per-step thermal integration across lanes through a shared
// structure-of-arrays BatchNetwork. All lanes must share a platform
// topology (same thermal network structure) and integration step;
// everything else — workloads, governors, seeds, controllers — may
// differ per lane. Results are bitwise-identical to running each lane
// alone.
//
// A BatchEngine is not safe for concurrent use, and the lanes must not
// be stepped independently while batched. On error the batch stops
// immediately; the failing step may then be partially applied across
// lanes, so a failed batch should be discarded, not resumed.
type BatchEngine struct {
	lanes  []*Engine
	bnet   *thermal.BatchNetwork
	nets   []*thermal.Network
	powers []float64 // node-major packed injection: [node*B + lane]
	stepS  float64
	m      int
}

// NewBatchEngine couples the given engines into one lockstep batch.
func NewBatchEngine(lanes []*Engine) (*BatchEngine, error) {
	b := &BatchEngine{}
	if err := b.Reset(lanes); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset rebinds the batch to a new set of lanes, reusing the fused
// kernel's buffers when the shape is unchanged — the hook that lets
// sweep pools recycle batch engines instead of constructing one per
// matrix cell.
func (b *BatchEngine) Reset(lanes []*Engine) error {
	if len(lanes) == 0 {
		return fmt.Errorf("sim: batch needs at least one lane")
	}
	step := lanes[0].cfg.StepS
	for i, e := range lanes {
		if e.cfg.StepS != step {
			return fmt.Errorf("sim: batch lane %d step %v differs from lane 0 step %v", i, e.cfg.StepS, step)
		}
	}
	b.nets = b.nets[:0]
	for _, e := range lanes {
		b.nets = append(b.nets, e.plat.Net)
	}
	if b.bnet == nil {
		bn, err := thermal.NewBatchNetwork(b.nets)
		if err != nil {
			return err
		}
		b.bnet = bn
	} else if err := b.bnet.Rebind(b.nets); err != nil {
		return err
	}
	b.lanes = append(b.lanes[:0], lanes...)
	b.stepS = step
	b.m = b.bnet.NumNodes()
	if need := b.m * len(lanes); cap(b.powers) < need {
		b.powers = make([]float64, need)
	} else {
		b.powers = b.powers[:need]
	}
	for _, e := range lanes {
		e.initFast()
	}
	return nil
}

// Lanes returns the engines the batch is driving, in lane order.
func (b *BatchEngine) Lanes() []*Engine { return b.lanes }

// Run advances every lane by durationS seconds, mirroring
// Engine.Run's duration-to-step conversion.
func (b *BatchEngine) Run(durationS float64) error {
	if durationS <= 0 || math.IsNaN(durationS) || math.IsInf(durationS, 0) {
		return fmt.Errorf("sim: run duration must be positive and finite, got %v", durationS)
	}
	steps := math.Round(durationS / b.stepS)
	if steps > MaxRunSteps || steps > float64(math.MaxInt) {
		return fmt.Errorf("sim: duration %v spans %.0f steps of %v, exceeding the %.0f-step run bound",
			durationS, steps, b.stepS, math.Min(MaxRunSteps, float64(math.MaxInt)))
	}
	return b.RunSteps(int(steps))
}

// RunSteps advances every lane by exactly steps fixed integration
// steps. Per step, each lane runs its pre-thermal phases, the fused
// kernel integrates all lanes' thermal networks in one pass, and each
// lane runs its post-thermal phases. Steady-state execution performs
// zero allocations.
func (b *BatchEngine) RunSteps(steps int) error {
	if steps < 0 {
		return fmt.Errorf("sim: step count must be >= 0, got %d", steps)
	}
	// Re-sync the packed state once per run: lane temperatures may have
	// been written externally (Prewarm, SetTemperature) since the last
	// fused step. Within the run the kernel keeps both sides coherent.
	b.bnet.Gather()
	B := len(b.lanes)
	for s := 0; s < steps; s++ {
		for li, e := range b.lanes {
			if err := e.stepPre(); err != nil {
				return fmt.Errorf("sim: lane %d t=%.3fs: %w", li, e.now, err)
			}
			for i, w := range e.powers {
				b.powers[i*B+li] = w
			}
		}
		if err := b.bnet.Step(b.stepS, b.powers); err != nil {
			return fmt.Errorf("sim: batch thermal step: %w", err)
		}
		for li, e := range b.lanes {
			if err := e.stepPost(); err != nil {
				return fmt.Errorf("sim: lane %d t=%.3fs: %w", li, e.now, err)
			}
		}
	}
	return nil
}

// BatchPool is a sync.Pool-style free list of reusable BatchEngines:
// Get pops a shell and rebinds it to the caller's lanes (reusing the
// fused kernel's buffers when shapes match), Put returns it. Unlike
// sync.Pool it never drops shells under GC pressure and is safe for
// deterministic reuse accounting in tests. The zero value is ready.
type BatchPool struct {
	mu     sync.Mutex
	free   []*BatchEngine
	reuses int
}

// Get returns a batch engine bound to lanes, recycling a pooled shell
// when one is available.
func (p *BatchPool) Get(lanes []*Engine) (*BatchEngine, error) {
	p.mu.Lock()
	var b *BatchEngine
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
		p.reuses++
	}
	p.mu.Unlock()
	if b == nil {
		return NewBatchEngine(lanes)
	}
	if err := b.Reset(lanes); err != nil {
		return nil, err
	}
	return b, nil
}

// Put returns a batch engine to the free list. The engine must not be
// used again until handed back out by Get.
func (p *BatchPool) Put(b *BatchEngine) {
	if b == nil {
		return
	}
	// Drop lane references so pooled shells never pin finished engines
	// (and their recorded traces) in memory.
	b.lanes = b.lanes[:0]
	b.nets = b.nets[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Reuses reports how many Get calls were served from the free list.
func (p *BatchPool) Reuses() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reuses
}
