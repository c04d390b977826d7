package main

import (
	"context"
	"time"
)

// An open-loop generator sends job k at its due time start + k·interval
// whatever happened to earlier jobs. It runs on one connection, so when
// a job outlives its interval the next one goes out late; timing each
// job from its due time, not its send time, charges that stall to the
// jobs that waited behind it, and lateness (send − due) shows how far
// the generator fell behind its schedule.

// clock is the generator's view of time, replaced in tests.
type clock interface {
	now() time.Time
	// sleepUntil returns at t or when ctx ends, whichever is first.
	sleepUntil(ctx context.Context, t time.Time)
}

type realClock struct{}

func (realClock) now() time.Time { return time.Now() }

func (realClock) sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// slot is one open-loop job's timing.
type slot struct {
	due, sent, done time.Time
	err             error
}

// late is how long after its due time the job was sent.
func (s slot) late() time.Duration { return s.sent.Sub(s.due) }

// latency is the job's time from due to done.
func (s slot) latency() time.Duration { return s.done.Sub(s.due) }

// runOpenLoop sends n jobs due at start + k·interval, one at a time,
// and returns their timings. It stops early when ctx ends or when a job
// would be sent after stop: a system that cannot keep up with the
// offered rate leaves the rest unsent rather than stretching the run.
func runOpenLoop(ctx context.Context, clk clock, start, stop time.Time, interval time.Duration, n int, do func(k int) error) []slot {
	slots := make([]slot, 0, n)
	for k := 0; k < n && ctx.Err() == nil && !clk.now().After(stop); k++ {
		due := start.Add(time.Duration(k) * interval)
		clk.sleepUntil(ctx, due)
		s := slot{due: due, sent: clk.now()}
		s.err = do(k)
		s.done = clk.now()
		slots = append(slots, s)
	}
	return slots
}
