package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoalescing: N concurrent identical requests run the function
// exactly once and all observe the same result.
func TestCoalescing(t *testing.T) {
	e := New(4)
	var execs atomic.Int64
	release := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	vals := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = e.Do(context.Background(), "simulate/gzip_comp/C", func(context.Context) (any, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
		}(i)
	}
	// Let every caller either start the execution or join it before the
	// function is allowed to finish.
	for e.Stats().Coalesced < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if vals[i] != 42 {
			t.Fatalf("caller %d: val = %v, want 42", i, vals[i])
		}
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Coalesced != n-1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want submitted=1 coalesced=%d completed=1", st, n-1)
	}
}

// TestDistinctKeysRunIndependently: different keys do not coalesce.
func TestDistinctKeysRunIndependently(t *testing.T) {
	e := New(8)
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Do(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (any, error) {
				execs.Add(1)
				return i, nil
			})
			if err != nil || v != i {
				t.Errorf("key k%d: v=%v err=%v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 10 {
		t.Fatalf("executions = %d, want 10", got)
	}
}

// TestWorkerPoolBound: at most `workers` functions run concurrently even
// when many distinct jobs are submitted at once.
func TestWorkerPoolBound(t *testing.T) {
	const workers = 3
	e := New(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = e.Do(context.Background(), fmt.Sprintf("job%d", i), func(context.Context) (any, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency = %d, want <= %d", p, workers)
	}
}

// TestErrorShared: a failing execution reports the same error to every
// coalesced caller, and the key becomes submittable again afterwards.
func TestErrorShared(t *testing.T) {
	e := New(2)
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Do(context.Background(), "k", func(context.Context) (any, error) {
				<-release
				return nil, boom
			})
		}(i)
	}
	for e.Stats().Coalesced < 3 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	// The key must be retryable after the failure cleared.
	v, err := e.Do(context.Background(), "k", func(context.Context) (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry: v=%v err=%v", v, err)
	}
	if st := e.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want failed=1 completed=1", st)
	}
}

// TestCallerCancellation: a cancelled waiter returns promptly with
// ctx.Err() while the remaining waiter still gets the real result.
func TestCallerCancellation(t *testing.T) {
	e := New(2)
	release := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())

	started := make(chan struct{})
	var wg sync.WaitGroup
	var err1 error
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_, err1 = e.Do(ctx1, "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
	}()
	<-started

	var val2 any
	var err2 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		val2, err2 = e.Do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("second caller must coalesce, not execute")
			return nil, nil
		})
	}()
	for e.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel1()
	// Release the job only after the cancelled caller returned, so its
	// wait cannot observe an already-completed result (in that race it
	// would — by design — get the result instead of ctx.Err()).
	<-done1
	close(release)
	wg.Wait()

	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("cancelled caller: err = %v, want context.Canceled", err1)
	}
	if err2 != nil || val2 != "slow" {
		t.Fatalf("surviving caller: val=%v err=%v", val2, err2)
	}
}

// TestAllWaitersCancelled: when every caller abandons the key, the
// execution's context is cancelled.
func TestAllWaitersCancelled(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	jobCancelled := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, "k", func(jctx context.Context) (any, error) {
			close(started)
			<-jctx.Done()
			close(jobCancelled)
			return nil, jctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-jobCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("job context was not cancelled after all waiters left")
	}
}

// TestJoinAfterAbandonStartsFresh: a Do call that arrives after the last
// waiter cancelled an in-flight call — but before the dying execution
// cleaned itself out of the inflight map — must start a fresh execution
// instead of inheriting a spurious context.Canceled.
// TestJoinAbandonedRunningExecution: an execution whose every waiter
// cancelled keeps running (it must land its artifact); a retry arriving
// mid-run joins it and shares the landed result instead of queueing a
// second execution of work that is already happening.
func TestJoinAbandonedRunningExecution(t *testing.T) {
	e := New(2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	started := make(chan struct{})
	hold := make(chan struct{})
	var runs atomic.Int64
	done1 := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx1, "k", func(jctx context.Context) (any, error) {
			runs.Add(1)
			close(started)
			<-jctx.Done() // every waiter abandoned...
			<-hold        // ...but the execution keeps going
			return "landed", nil
		})
		done1 <- err
	}()
	<-started
	cancel1()
	// Once the waiter returned, c.cancel() has fired, but the execution is
	// still on its worker, so the call is still in the inflight map.
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller: err = %v, want context.Canceled", err)
	}

	type res struct {
		v   any
		err error
	}
	joined := make(chan res, 1)
	go func() {
		v, err := e.Do(context.Background(), "k", func(context.Context) (any, error) {
			runs.Add(1)
			return "fresh", nil
		})
		joined <- res{v, err}
	}()
	// Release the running execution only after the retry has joined it
	// (a fresh execution would bump Submitted instead).
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Coalesced == 0 {
		if time.Now().After(deadline) || e.Stats().Submitted > 1 {
			t.Fatalf("retry did not join the abandoned execution: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	r := <-joined
	if r.err != nil || r.v != "landed" {
		t.Fatalf("retry got v=%v err=%v, want the abandoned execution's result", r.v, r.err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

// TestCancelledQueuedCallNeverRuns: a call abandoned while still queued
// (it never reached a worker) must not execute its fn when a slot frees
// up — nobody can observe it, and for fns that ignore cancellation it
// would duplicate the fresh execution that replaced it.
func TestCancelledQueuedCallNeverRuns(t *testing.T) {
	e := New(1)
	block := make(chan struct{})
	occupying := make(chan struct{})
	occupied := make(chan struct{}, 1)
	go func() {
		e.Do(context.Background(), "occupier", func(context.Context) (any, error) {
			close(occupying)
			<-block
			return nil, nil
		})
		occupied <- struct{}{}
	}()
	<-occupying

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(ctx, "k", func(context.Context) (any, error) {
			ran.Store(true)
			return nil, nil
		})
		done <- err
	}()
	// Cancel while the call is queued behind the occupier.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued call never registered: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller: err = %v, want context.Canceled", err)
	}

	close(block)
	<-occupied
	v, err := e.Do(context.Background(), "k", func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || v != "fresh" {
		t.Fatalf("arrival after a dead queued call: v=%v err=%v, want fresh execution", v, err)
	}
	if ran.Load() {
		t.Fatal("a call cancelled before reaching a worker executed its fn")
	}
}

// TestWaitPrefersCompletedResult: when the caller's context is cancelled
// but the call has already completed, wait must return the result, not
// ctx.Err().
func TestWaitPrefersCompletedResult(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		c := &call{ctx: context.Background(), done: make(chan struct{}),
			waiters: 1, cancel: func() {}}
		c.val = "v"
		close(c.done)
		// Both select branches are ready; the result must win every time.
		v, err := e.wait(ctx, c)
		if err != nil || v != "v" {
			t.Fatalf("iteration %d: v=%v err=%v, want completed result", i, v, err)
		}
	}
}

// TestPanicBecomesError: a panicking job reports an error instead of
// crashing the pool, and the pool slot is released.
func TestPanicBecomesError(t *testing.T) {
	e := New(1)
	_, err := e.Do(context.Background(), "bad", func(context.Context) (any, error) {
		panic("kaboom")
	})
	if err == nil {
		t.Fatal("want panic converted to error")
	}
	// Pool must still have its slot.
	v, err := e.Do(context.Background(), "good", func(context.Context) (any, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("pool unusable after panic: v=%v err=%v", v, err)
	}
}

// TestGroup: the Group helper fans out, preserves per-job callbacks, and
// reports the first error.
func TestGroup(t *testing.T) {
	e := New(4)
	g := e.NewGroup(context.Background())
	var sum atomic.Int64
	for i := 1; i <= 5; i++ {
		i := i
		g.Go(fmt.Sprintf("n%d", i), func(context.Context) (any, error) { return int64(i), nil },
			func(val any, err error) {
				if err == nil {
					sum.Add(val.(int64))
				}
			})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 15 {
		t.Fatalf("sum = %d, want 15", sum.Load())
	}

	g2 := e.NewGroup(context.Background())
	boom := errors.New("boom")
	g2.Go("ok", func(context.Context) (any, error) { return nil, nil }, nil)
	g2.Go("bad", func(context.Context) (any, error) { return nil, boom }, nil)
	if err := g2.Wait(); !errors.Is(err, boom) {
		t.Fatalf("group err = %v, want boom", err)
	}
}

// TestTimingStats: durations accumulate and every run is timed.
func TestTimingStats(t *testing.T) {
	e := New(2)
	for i := 0; i < 3; i++ {
		_, _ = e.Do(context.Background(), fmt.Sprintf("t%d", i), func(context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		})
	}
	st := e.Stats()
	if st.Completed != 3 || st.TotalTime <= 0 || st.MaxTime <= 0 || st.TimedRuns != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxTime > st.TotalTime {
		t.Fatalf("max %v > total %v", st.MaxTime, st.TotalTime)
	}
}
