package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/mobisim"
)

func testMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovNone},
		LimitsC:    []float64{58, 70},
		Replicates: 1,
		DurationS:  2,
		BaseSeed:   3,
	}
}

// coldSweepJSON is the reference body: mobisim.RunSweep output encoded
// exactly as the daemon encodes job results.
func coldSweepJSON(t *testing.T, m mobisim.Matrix) []byte {
	t.Helper()
	out, err := mobisim.RunSweep(context.Background(), m, mobisim.SweepConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func matrixBody(t *testing.T, m mobisim.Matrix, extra string) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"matrix": %s%s}`, raw, extra)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("submit response: %v\n%s", err, data)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("job %s reached %s (error: %s) waiting for %v", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %v", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, data)
	}
	return data
}

// TestServerJobByteIdentityAndCacheHit is the tentpole contract test:
// a job's result body is byte-identical to an in-process RunSweep of
// the same matrix, and re-submitting the identical matrix to the warm
// daemon re-simulates nothing — every cell a cache hit, the body still
// byte-identical.
func TestServerJobByteIdentityAndCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	want := coldSweepJSON(t, m)
	cells := m.ExpandedSize()

	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	st, resp := postJob(t, ts, matrixBody(t, m, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location header: %q", loc)
	}
	if st.Cells != cells {
		t.Errorf("cells: %d, want %d", st.Cells, cells)
	}
	done := waitState(t, ts, st.ID, JobDone)
	if done.Computed != cells || done.CacheHits != 0 {
		t.Errorf("cold job counters: %+v", done)
	}
	body1 := getResult(t, ts, st.ID)
	if !bytes.Equal(body1, want) {
		t.Errorf("job result differs from RunSweep:\nwant:\n%s\ngot:\n%s", want, body1)
	}

	st2, _ := postJob(t, ts, matrixBody(t, m, ""))
	done2 := waitState(t, ts, st2.ID, JobDone)
	if done2.CacheHits != cells || done2.Computed != 0 {
		t.Errorf("warm job not fully cached: %+v", done2)
	}
	body2 := getResult(t, ts, st2.ID)
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache-hit body differs from cold body")
	}

	// /v1/stats must agree: every cell simulated exactly once overall.
	var stats Stats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Computed != uint64(cells) {
		t.Errorf("scheduler computed %d cells, want %d", stats.Scheduler.Computed, cells)
	}
	if stats.Cache.HitRate != 0.5 {
		t.Errorf("hit rate: %v, want 0.5 (one cold + one warm pass)", stats.Cache.HitRate)
	}
	if stats.Cells.Completed != uint64(2*cells) {
		t.Errorf("cells completed: %d", stats.Cells.Completed)
	}
	if stats.Jobs[JobDone] != 2 {
		t.Errorf("done jobs: %d", stats.Jobs[JobDone])
	}
}

// TestServerConcurrentClients is the concurrency satellite: N clients
// submit the same matrix simultaneously to a daemon with a cold cache;
// the cells must be simulated exactly once in total (singleflight +
// cache dedup across jobs), every response byte-identical to a cold
// RunSweep.
func TestServerConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	want := coldSweepJSON(t, m)
	cells := m.ExpandedSize()
	const clients = 3

	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: clients, CellWorkers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())

	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, ts, matrixBody(t, m, ""))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: submit status %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	totalComputed, totalOther := 0, 0
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		done := waitState(t, ts, id, JobDone)
		totalComputed += done.Computed
		totalOther += done.CacheHits + done.Deduped
		if body := getResult(t, ts, id); !bytes.Equal(body, want) {
			t.Errorf("job %s body differs from cold RunSweep", id)
		}
	}
	st := srv.sched.Stats()
	if st.Computed != uint64(cells) {
		t.Errorf("scheduler simulated %d cells, want exactly %d", st.Computed, cells)
	}
	if totalComputed != cells {
		t.Errorf("jobs report %d computed cells, want %d", totalComputed, cells)
	}
	if totalOther != (clients-1)*cells {
		t.Errorf("jobs report %d dedup/hit cells, want %d", totalOther, (clients-1)*cells)
	}
}

// TestServerDrain pins graceful shutdown: once draining, healthz flips
// to 503 and new submissions are refused, but the in-flight job runs
// to completion and its result stays retrievable.
func TestServerDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()

	st, _ := postJob(t, ts, matrixBody(t, m, ""))
	waitState(t, ts, st.ID, JobRunning, JobDone)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Draining is observable almost immediately; the job keeps running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, resp := postJob(t, ts, matrixBody(t, m, "")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: %d, want 503", resp.StatusCode)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if got := getStatus(t, ts, st.ID); got.State != JobDone {
		t.Fatalf("drained job state: %s, want done", got.State)
	}
	if body := getResult(t, ts, st.ID); len(body) == 0 {
		t.Error("drained job has no result")
	}
}

// TestServerHardShutdown pins the expiry path: a shutdown context that
// is already done hard-cancels the running job, Shutdown returns the
// context error, and the job lands in canceled.
func TestServerHardShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	long := testMatrix()
	long.DurationS = 120 // far beyond the test's patience: must be canceled, not drained
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()
	st, _ := postJob(t, ts, matrixBody(t, long, ""))
	waitState(t, ts, st.ID, JobRunning)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("hard shutdown error: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, st.ID).State != JobCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("job state after hard shutdown: %s, want canceled", getStatus(t, ts, st.ID).State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobFailOnCancellationIsCanceled pins the hard-shutdown labeling:
// canceling the daemon's base context reaches the units a running job
// waits on before it reaches the job's own context, so the job can fail
// with its units' cancellation while its context still reads live. Such
// a job was canceled, not failed; a genuine error still fails it.
func TestJobFailOnCancellationIsCanceled(t *testing.T) {
	spec := &JobSpec{}
	job := NewJob("j-cancel", spec, context.Background())
	if !job.Start() {
		t.Fatal("job did not start")
	}
	job.Fail(fmt.Errorf("unit: %w", context.Canceled))
	if got := job.State(); got != JobCanceled {
		t.Errorf("job failed by a cancellation: state %s, want %s", got, JobCanceled)
	}

	job = NewJob("j-fail", spec, context.Background())
	job.Start()
	job.Fail(errors.New("boom"))
	if got := job.State(); got != JobFailed {
		t.Errorf("job failed by an error: state %s, want %s", got, JobFailed)
	}
}

// TestServerBackpressure pins bounded admission: with no workers
// draining the queue, submissions beyond QueueCap answer 429 with a
// Retry-After header and don't register a job.
func TestServerBackpressure(t *testing.T) {
	m := mobisim.Matrix{
		Platforms: []string{mobisim.PlatformOdroidXU3}, Workloads: []string{"3dmark"},
		Governors: []string{mobisim.GovNone}, DurationS: 1, BaseSeed: 1,
	}
	_, ts := newTestServer(t, Config{QueueCap: 1}) // Start never called
	if _, resp := postJob(t, ts, matrixBody(t, m, "")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts, matrixBody(t, m, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestServerCancelJob pins DELETE: a queued job (no workers running)
// transitions to canceled and its result endpoint answers 409.
func TestServerCancelJob(t *testing.T) {
	m := mobisim.Matrix{
		Platforms: []string{mobisim.PlatformOdroidXU3}, Workloads: []string{"3dmark"},
		Governors: []string{mobisim.GovNone}, DurationS: 1, BaseSeed: 1,
	}
	_, ts := newTestServer(t, Config{QueueCap: 4})
	st, _ := postJob(t, ts, matrixBody(t, m, ""))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status: %d", resp.StatusCode)
	}
	if got := getStatus(t, ts, st.ID); got.State != JobCanceled {
		t.Fatalf("state after cancel: %s", got.State)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job: %d, want 409", rresp.StatusCode)
	}
}

// TestServerRequestValidation pins the 4xx surface.
func TestServerRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []struct {
		name, body string
	}{
		{"empty-object", `{}`},
		{"both-specs", `{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1}, "scenario": {"platform":"odroid-xu3","workload":"3dmark","duration_s":1}}`},
		{"unknown-field", `{"matrx": {}}`},
		{"trailing-data", `{"scenario": {"platform":"odroid-xu3","workload":"3dmark","duration_s":1}} extra`},
		{"invalid-matrix", `{"matrix": {"platforms":["no-such-device"],"workloads":["3dmark"],"governors":["none"],"duration_s":1}}`},
		{"not-json", `not json`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := postJob(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	// Unknown job id.
	resp, err := http.Get(ts.URL + "/v1/jobs/j-nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	// Method misuse.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: %d, want 405", resp.StatusCode)
	}
}

// TestServerSSE pins the event feed: a subscriber attaching after
// completion replays the full retained history — one cell event per
// cell, a job transition, and the terminal end event — as well-formed
// SSE frames.
func TestServerSSE(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := mobisim.Matrix{
		Platforms: []string{mobisim.PlatformOdroidXU3}, Workloads: []string{"3dmark"},
		Governors: []string{mobisim.GovNone}, Replicates: 2, DurationS: 1, BaseSeed: 5,
	}
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	st, _ := postJob(t, ts, matrixBody(t, m, `, "stream_samples": true`))
	waitState(t, ts, st.ID, JobDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %q", ct)
	}
	data, err := io.ReadAll(resp.Body) // broker is closed: stream ends
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			counts[after]++
		}
	}
	if counts["cell"] != m.ExpandedSize() {
		t.Errorf("cell events: %d, want %d\n%s", counts["cell"], m.ExpandedSize(), data)
	}
	if counts["end"] != 1 {
		t.Errorf("end events: %d, want 1", counts["end"])
	}
	if counts["job"] == 0 {
		t.Error("no job lifecycle event")
	}
	// Every data line must be valid JSON (NaN sanitization).
	for _, line := range strings.Split(string(data), "\n") {
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			if !json.Valid([]byte(after)) {
				t.Errorf("invalid JSON payload: %s", after)
			}
		}
	}
}

// TestServerScenarioJob pins the single-scenario path end to end,
// including key-level caching across distinct submissions.
func TestServerScenarioJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	body := `{"scenario": {"platform":"odroid-xu3","workload":"3dmark","governor":"none","duration_s":1,"seed":7}}`
	st, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted || st.Cells != 1 {
		t.Fatalf("scenario submit: %d, cells %d", resp.StatusCode, st.Cells)
	}
	waitState(t, ts, st.ID, JobDone)
	first := getResult(t, ts, st.ID)

	st2, _ := postJob(t, ts, body)
	done2 := waitState(t, ts, st2.ID, JobDone)
	if done2.CacheHits != 1 || done2.Computed != 0 {
		t.Errorf("re-submitted scenario not cached: %+v", done2)
	}
	if !bytes.Equal(first, getResult(t, ts, st2.ID)) {
		t.Error("scenario cache hit not byte-identical")
	}
}
