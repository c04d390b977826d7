package main

import (
	"context"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a job runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleepUntil(_ context.Context, t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopTimesJobsFromTheirDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	// Interval 50ms; job 1 stalls for 120ms, so jobs 2 and 3 go out late.
	service := []time.Duration{10, 120, 10, 10, 10}
	never := start.Add(time.Hour)
	slots := runOpenLoop(context.Background(), clk, start, never, 50*time.Millisecond, len(service), func(k int) error {
		clk.t = clk.t.Add(service[k] * time.Millisecond)
		return nil
	})
	want := []struct{ late, latency time.Duration }{
		{0, 10},  // due 0, sent 0, done 10
		{0, 120}, // due 50, sent 50, done 170
		{70, 80}, // due 100, sent 170, done 180
		{30, 40}, // due 150, sent 180, done 190
		{0, 10},  // due 200: back on schedule
	}
	if len(slots) != len(want) {
		t.Fatalf("got %d slots, want %d", len(slots), len(want))
	}
	for k, w := range want {
		if got := slots[k].late(); got != w.late*time.Millisecond {
			t.Errorf("job %d late = %v, want %v", k, got, w.late*time.Millisecond)
		}
		if got := slots[k].latency(); got != w.latency*time.Millisecond {
			t.Errorf("job %d latency = %v, want %v", k, got, w.latency*time.Millisecond)
		}
	}
}

func TestOpenLoopStopsWhenCanceled(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{t: start}
	ctx, cancel := context.WithCancel(context.Background())
	slots := runOpenLoop(ctx, clk, start, start.Add(time.Hour), time.Millisecond, 10, func(k int) error {
		if k == 2 {
			cancel()
		}
		return nil
	})
	if len(slots) != 3 {
		t.Errorf("ran %d jobs after cancel at job 2, want 3", len(slots))
	}
}

func TestOpenLoopLeavesJobsUnsentPastStop(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{t: start}
	// Every job takes 100ms against a 10ms interval; after 250ms the
	// generator gives up on the jobs still due.
	slots := runOpenLoop(context.Background(), clk, start, start.Add(250*time.Millisecond), 10*time.Millisecond, 100, func(int) error {
		clk.t = clk.t.Add(100 * time.Millisecond)
		return nil
	})
	if len(slots) != 3 {
		t.Fatalf("sent %d jobs, want 3 (at 0, 100 and 200ms)", len(slots))
	}
	if got := slots[2].late(); got != 180*time.Millisecond {
		t.Errorf("third job late by %v, want 180ms", got)
	}
}
