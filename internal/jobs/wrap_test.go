package jobs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSetWrap: the wrap seam sees every execution with its key and can
// substitute the outcome (the fault-injection mechanism of the chaos
// suite); a panic injected through it is still converted to an error.
func TestSetWrap(t *testing.T) {
	e := New(2)
	injected := errors.New("injected")
	e.SetWrap(func(key string, fn JobFunc) JobFunc {
		switch key {
		case "fail":
			return func(context.Context) (any, error) { return nil, injected }
		case "panic":
			return func(context.Context) (any, error) { panic("chaos") }
		}
		return fn
	})

	if v, err := e.Do(context.Background(), "ok", func(context.Context) (any, error) {
		return 7, nil
	}); err != nil || v.(int) != 7 {
		t.Fatalf("unwrapped key: %v, %v", v, err)
	}
	if _, err := e.Do(context.Background(), "fail", func(context.Context) (any, error) {
		return 7, nil
	}); !errors.Is(err, injected) {
		t.Fatalf("wrapped error = %v, want injected", err)
	}
	if _, err := e.Do(context.Background(), "panic", func(context.Context) (any, error) {
		return 7, nil
	}); err == nil {
		t.Fatal("injected panic not converted to error")
	}

	e.SetWrap(nil)
	if v, err := e.Do(context.Background(), "fail", func(context.Context) (any, error) {
		return 9, nil
	}); err != nil || v.(int) != 9 {
		t.Fatalf("after removing wrap: %v, %v", v, err)
	}
}

// TestTimedRunsExcludeUnranFailures: an execution cancelled before it
// acquires a slot records zero duration; it must count as Failed but
// not as a timed run, so TotalTime/TimedRuns is a mean over executions
// that actually ran.
func TestTimedRunsExcludeUnranFailures(t *testing.T) {
	e := New(1)

	// Occupy the only worker so a second job queues on the semaphore.
	block := make(chan struct{})
	started := make(chan struct{})
	go e.Do(context.Background(), "hold", func(context.Context) (any, error) {
		close(started)
		<-block
		time.Sleep(10 * time.Millisecond) // guarantees a nonzero duration
		return nil, nil
	})
	<-started

	// This one dies waiting for a slot: Failed++, duration 0.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := e.Do(ctx, "starved", func(context.Context) (any, error) {
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("starved job err = %v, want canceled", err)
	}
	close(block)

	deadline := time.After(5 * time.Second)
	for e.Stats().Completed < 1 {
		select {
		case <-deadline:
			t.Fatal("held job never completed")
		case <-time.After(time.Millisecond):
		}
	}

	st := e.Stats()
	if st.Failed < 1 || st.TimedRuns != 1 {
		t.Fatalf("stats = %+v, want failed>=1 timed_runs=1", st)
	}
	if st.TotalTime <= 0 {
		t.Fatalf("TotalTime = %v, want > 0 from the one timed run", st.TotalTime)
	}
}
