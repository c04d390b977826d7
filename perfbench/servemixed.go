package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchkit"
	"repro/internal/simd"
	"repro/pkg/mobisim"
	"repro/pkg/simclient"
)

// serve-mixed: the simd daemon, configured as cmd/simd starts it plus a
// cache directory, on loopback HTTP, driven through pkg/simclient over
// two client connections:
//
//   - bulk, closed loop: one fresh 32-cell benchkit.WarmSweepMatrix job
//     at a time;
//   - interactive, open loop at interactiveRate: 60% resubmitted 1-cell
//     jobs from a primed hot set (cache hits), 30% fresh 4-cell limit
//     sweeps (misses that form one warm unit), 10% 1-cell jobs asking
//     for a cell of the bulk job in flight (singleflight joins).
//
// Each job is submitted, followed on its SSE feed to the terminal event
// and its result fetched; latency runs from the job's due time to the
// last result byte.

// replayOp is the op id of the batch-seam replay in the trace report;
// window jobs use small positive (interactive) and negative (bulk) ids.
const replayOp = 1 << 30

const (
	interactiveRate = 20 // jobs per second on the open-loop stream
	hitShare        = 0.6
	missShare       = 0.3 // the rest are joins
)

type jobClass string

const (
	classHit  jobClass = "hit"
	classMiss jobClass = "miss"
	classJoin jobClass = "join"
	classBulk jobClass = "bulk"
)

// daemon is an in-process simd server behind a loopback listener.
type daemon struct {
	srv    *simd.Server
	hs     *http.Server
	served chan error
	dir    string
	url    string
}

// startDaemon starts simd with cmd/simd's default settings (queue 16, 2
// job workers, GOMAXPROCS cell workers, lockstep batches of the default
// width, default memory tier) and a cache directory.
func startDaemon(dir string) (*daemon, error) {
	srv, err := simd.NewServer(simd.Config{CacheDir: dir, BatchWidth: -1})
	if err != nil {
		return nil, err
	}
	if srv.Degraded() {
		return nil, fmt.Errorf("daemon degraded at start: %v", srv.DegradedReasons())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1), dir: dir,
		url: "http://" + ln.Addr().String()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes the listener, waits for the serving
// goroutine and removes the cache directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// stats reads /v1/stats in process, so sampling it opens no connection.
func (d *daemon) stats() (simd.Stats, error) {
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st simd.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// connCounters counts what one client connection saw.
type connCounters struct {
	refused atomic.Int64 // 429 responses
	retries atomic.Int64 // retry decisions the client logged
}

// countingTransport counts 429 responses on their way to the client.
type countingTransport struct {
	base *http.Transport
	c    *connCounters
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		t.c.refused.Add(1)
	}
	return resp, err
}

// newConn returns a simclient.Client limited to one connection at a
// time, and the transport to close when done.
func newConn(url string, c *connCounters) (*simclient.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &simclient.Client{
		BaseURL:    url,
		HTTPClient: &http.Client{Transport: countingTransport{base: tr, c: c}},
		Logf:       func(string, ...any) { c.retries.Add(1) },
	}, tr
}

// jobRun is one completed (or failed) job.
type jobRun struct {
	class   jobClass
	env     []byte
	matrix  *mobisim.Matrix   // matrix jobs
	spec    *mobisim.Scenario // 1-cell jobs
	hotIdx  int
	body    []byte
	status  simclient.JobStatus // from the terminal event
	latency time.Duration       // due (or submit) to last result byte
	err     error
}

// runJob submits env, follows the job's SSE feed to its terminal event
// and fetches the result, with a span around each client call.
func runJob(ctx context.Context, c *simclient.Client, env []byte, tr *tracer, op int, parent int32) ([]byte, simclient.JobStatus, error) {
	var end simclient.JobStatus
	var st *simclient.JobStatus
	err := tr.call(op, parent, "simclient.Submit", func(int32) error {
		var err error
		st, err = c.Submit(ctx, env)
		return err
	})
	if err != nil {
		return nil, end, err
	}
	err = tr.call(op, parent, "simclient.Stream", func(int32) error {
		_, err := c.Stream(ctx, st.ID, 0, func(ev simclient.Event) error {
			if ev.Type == "end" {
				return json.Unmarshal(ev.Data, &end)
			}
			return nil
		})
		return err
	})
	if err != nil {
		return nil, end, err
	}
	if end.State != simclient.StateDone {
		return nil, end, fmt.Errorf("job %s ended %s: %s", st.ID, end.State, end.Error)
	}
	var body []byte
	err = tr.call(op, parent, "simclient.Result", func(int32) error {
		var err error
		body, err = c.Result(ctx, st.ID)
		return err
	})
	return body, end, err
}

func matrixEnvelope(m mobisim.Matrix) ([]byte, error) {
	return json.Marshal(struct {
		Matrix mobisim.Matrix `json:"matrix"`
	}{m})
}

// scenarioEnvelope wraps one cell's spec as a 1-cell job. The name
// label is not part of the cell's content key, so a fresh label makes
// a new job (an identical body would attach to the finished one) whose
// cell the cache can still answer.
func scenarioEnvelope(spec mobisim.Scenario, label string) ([]byte, error) {
	spec.Name = label
	return json.Marshal(struct {
		Scenario mobisim.Scenario `json:"scenario"`
	}{spec})
}

// Seeds of the serve-mixed inputs, in ranges that never meet.
func hotBase(seed int64) int64             { return seed*10_000_000 + 9_000_000 }
func bulkBase(seed int64, k int) int64     { return seed*10_000_000 + 5_000_000 + int64(k) }
func missBase(seed int64, k int) int64     { return seed*10_000_000 + 7_000_000 + int64(k) }
func overheadBase(seed int64, k int) int64 { return seed*10_000_000 + 8_000_000 + int64(k) }

func bulkMatrix(seed int64, k int) mobisim.Matrix {
	m := benchkit.WarmSweepMatrix()
	m.BaseSeed = bulkBase(seed, k)
	return m
}

func missMatrix(seed int64, k int, workload string) mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{workload},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{55, 61, 67, 73},
		Replicates: 1,
		DurationS:  10,
		BaseSeed:   missBase(seed, k),
	}
}

// hotSet is the primed 1-cell working set: sweep-local's 32 cells at a
// seed of their own, with each cell's primed result bytes.
type hotSet struct {
	specs  []mobisim.Scenario
	bodies [][]byte
}

func primeHotSet(ctx context.Context, c *simclient.Client, seed int64) (*hotSet, error) {
	h := &hotSet{}
	for _, m := range sweepMatrices(hotBase(seed)) {
		cells, err := mobisim.ExpandCells(m)
		if err != nil {
			return nil, err
		}
		for _, cell := range cells {
			h.specs = append(h.specs, cell.Spec)
		}
	}
	for i, spec := range h.specs {
		env, err := scenarioEnvelope(spec, "prime-"+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		body, _, err := runJob(ctx, c, env, nil, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("prime hot cell %d: %w", i, err)
		}
		h.bodies = append(h.bodies, body)
	}
	return h, nil
}

// serveRun is one serve-mixed process's state.
type serveRun struct {
	cfg  config
	d    *daemon
	hot  *hotSet
	bulk *simclient.Client
	ia   *simclient.Client

	bulkConn, iaConn connCounters
	transports       []*http.Transport

	// current is the bulk job in flight, for joins.
	mu      sync.Mutex
	current []mobisim.Cell
}

func (r *serveRun) close() error {
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
	if r.d == nil {
		return nil
	}
	return r.d.stop()
}

// setup starts a fresh daemon with an empty cache directory, opens the
// two connections and primes the hot set.
func (r *serveRun) setup(ctx context.Context, rep int) error {
	dir := filepath.Join(workDir, "tmp", fmt.Sprintf("simd-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	r.d = d
	var bt, it *http.Transport
	r.bulk, bt = newConn(d.url, &r.bulkConn)
	r.ia, it = newConn(d.url, &r.iaConn)
	r.transports = []*http.Transport{bt, it}
	r.hot, err = primeHotSet(ctx, r.ia, r.cfg.seed)
	return err
}

func runServeMixed(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	r := &serveRun{cfg: cfg}
	rep := 0
	err := out.repeatSetup(func(last bool) error {
		rep++
		if err := r.setup(ctx, rep); err != nil {
			return err
		}
		if last {
			return nil
		}
		err := r.close()
		r.d = nil
		return err
	})
	if err != nil {
		if r.d != nil {
			_ = r.close() // the set-up error is the one to report
		}
		return nil, err
	}
	err = r.measure(ctx, out)
	if cerr := r.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop daemon: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// window is what the timed window produced.
type window struct {
	bulk []*jobRun
	ia   []*jobRun
	late []time.Duration
	// unsent counts interactive jobs due in the window that the
	// generator gave up on because the daemon fell too far behind.
	unsent int
	// depthMax is the deepest queue seen (traced runs sample it).
	depthMax int
}

// measure runs the window and fills out: attempts, failed checks, the
// end-to-end metrics and, traced, the per-layer metrics.
func (r *serveRun) measure(ctx context.Context, out *outcome) error {
	var tr *tracer
	if r.cfg.trace {
		tr = newTracer()
	}
	before, err := r.d.stats()
	if err != nil {
		return err
	}
	w := r.runWindow(ctx, tr)
	after, err := r.d.stats()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	var bulkSecs, hitMS, missMS []float64
	for _, j := range append(append([]*jobRun(nil), w.bulk...), w.ia...) {
		out.attempted++
		if j.err != nil {
			out.fail("%s job: %v", j.class, j.err)
			continue
		}
		switch j.class {
		case classBulk:
			bulkSecs = append(bulkSecs, j.latency.Seconds())
		case classHit:
			hitMS = append(hitMS, ms(j.latency))
			if !bytes.Equal(j.body, r.hot.bodies[j.hotIdx]) {
				out.fail("hit on hot cell %d returned bytes that differ from its primed result", j.hotIdx)
			}
		case classMiss:
			missMS = append(missMS, ms(j.latency))
		}
	}
	if w.unsent > 0 {
		out.attempted += w.unsent
		out.failed += w.unsent
		out.failures = append(out.failures, fmt.Sprintf("%d interactive jobs due in the window were never sent: the daemon fell %s behind the offered rate", w.unsent, r.cfg.window/2))
	}
	r.checkSample(ctx, out, w)
	if len(bulkSecs) == 0 || len(hitMS) == 0 || len(missMS) == 0 {
		return fmt.Errorf("window too short: %d bulk, %d hit, %d miss jobs", len(bulkSecs), len(hitMS), len(missMS))
	}
	out.endToEnd(benchkit.WarmSweepCells, bulkSecs)
	out.note("hit_p50_ms", "ms", median(hitMS))
	out.note("miss_p50_ms", "ms", median(missMS))
	if r.cfg.trace {
		out.spans = tr.closed()
		if err := r.layers(ctx, out, w, before, after, hitMS, missMS); err != nil {
			return err
		}
	}
	return nil
}

// runWindow runs the bulk and interactive streams for the window. Both
// start together; the bulk stream submits until the window closes and
// the interactive stream sends every job due inside it.
func (r *serveRun) runWindow(ctx context.Context, tr *tracer) *window {
	w := &window{}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; time.Since(start) < r.cfg.window && ctx.Err() == nil; k++ {
			w.bulk = append(w.bulk, r.bulkJob(ctx, tr, k))
		}
	}()

	rng := rand.New(rand.NewSource(r.cfg.seed))
	interval := time.Second / interactiveRate
	n := int(r.cfg.window / interval)
	stop := start.Add(r.cfg.window + r.cfg.window/2)
	slots := runOpenLoop(ctx, realClock{}, start, stop, interval, n, func(k int) error {
		j := r.interactiveJob(ctx, tr, rng, k)
		w.ia = append(w.ia, j)
		if tr != nil {
			if st, err := r.d.stats(); err == nil {
				w.depthMax = max(w.depthMax, st.Queue.Depth)
			}
		}
		return j.err
	})
	for i, s := range slots {
		w.ia[i].latency = s.latency()
		w.late = append(w.late, s.late())
	}
	w.unsent = n - len(slots)
	wg.Wait()
	return w
}

func (r *serveRun) bulkJob(ctx context.Context, tr *tracer, k int) *jobRun {
	m := bulkMatrix(r.cfg.seed, k)
	j := &jobRun{class: classBulk, matrix: &m}
	cells, err := mobisim.ExpandCells(m)
	if err == nil {
		j.env, err = matrixEnvelope(m)
	}
	if err != nil {
		j.err = err
		return j
	}
	r.mu.Lock()
	r.current = cells
	r.mu.Unlock()
	t0 := time.Now()
	root := tr.begin(-1-k, 0, "job.bulk")
	j.body, j.status, j.err = runJob(ctx, r.bulk, j.env, tr, -1-k, root)
	tr.end(root)
	j.latency = time.Since(t0)
	return j
}

// interactiveJob draws the k-th interactive job's class from rng and
// runs it. Op ids of interactive jobs are k+1; bulk jobs use negatives.
func (r *serveRun) interactiveJob(ctx context.Context, tr *tracer, rng *rand.Rand, k int) *jobRun {
	u := rng.Float64()
	j := &jobRun{}
	var err error
	switch {
	case u < hitShare:
		j.class = classHit
		j.hotIdx = rng.Intn(len(r.hot.specs))
		j.env, err = scenarioEnvelope(r.hot.specs[j.hotIdx], "hit-"+strconv.Itoa(k))
	case u < hitShare+missShare:
		j.class = classMiss
		wl := "3dmark+bml"
		if rng.Intn(2) == 1 {
			wl = "nenamark+bml"
		}
		m := missMatrix(r.cfg.seed, k, wl)
		j.matrix = &m
		j.env, err = matrixEnvelope(m)
	default:
		j.class = classJoin
		r.mu.Lock()
		cells := r.current
		r.mu.Unlock()
		if len(cells) == 0 {
			cells, err = mobisim.ExpandCells(bulkMatrix(r.cfg.seed, 0))
		}
		if err == nil {
			spec := cells[rng.Intn(len(cells))].Spec
			j.spec = &spec
			j.env, err = scenarioEnvelope(spec, "join-"+strconv.Itoa(k))
		}
	}
	if err != nil {
		j.err = err
		return j
	}
	root := tr.begin(k+1, 0, "job."+string(j.class))
	j.body, j.status, j.err = runJob(ctx, r.ia, j.env, tr, k+1, root)
	tr.end(root)
	return j
}

// localBody computes a job's result locally: RunSweep for matrix jobs,
// the cell-level path for 1-cell jobs, encoded as the daemon encodes.
func localBody(ctx context.Context, j *jobRun) ([]byte, error) {
	var out *mobisim.SweepOutput
	var err error
	if j.matrix != nil {
		out, err = mobisim.RunSweep(ctx, *j.matrix, mobisim.SweepConfig{})
	} else {
		var cell mobisim.Cell
		cell, err = mobisim.CellForScenario(*j.spec)
		if err != nil {
			return nil, err
		}
		var m map[string]float64
		m, err = mobisim.RunScenarioMetrics(ctx, cell.Spec)
		if err != nil {
			return nil, err
		}
		out, err = mobisim.AggregateCells([]mobisim.Cell{cell}, []map[string]float64{m}, false)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = out.EncodeJSON(&buf)
	return buf.Bytes(), err
}

// checkSample byte-compares a seeded sample of completed miss, bulk and
// join jobs against local runs of the same input.
func (r *serveRun) checkSample(ctx context.Context, out *outcome, w *window) {
	rng := rand.New(rand.NewSource(r.cfg.seed + 1))
	pick := func(jobs []*jobRun, class jobClass, n int) []*jobRun {
		var ok []*jobRun
		for _, j := range jobs {
			if j.class == class && j.err == nil {
				ok = append(ok, j)
			}
		}
		rng.Shuffle(len(ok), func(a, b int) { ok[a], ok[b] = ok[b], ok[a] })
		return ok[:min(n, len(ok))]
	}
	sample := append(pick(w.ia, classMiss, 4), pick(w.bulk, classBulk, 2)...)
	sample = append(sample, pick(w.ia, classJoin, 2)...)
	for _, j := range sample {
		want, err := localBody(ctx, j)
		if err != nil {
			out.fail("local run of a sampled %s job: %v", j.class, err)
			continue
		}
		if !bytes.Equal(j.body, want) {
			out.fail("sampled %s job: daemon result differs from the local run", j.class)
		}
	}
}
