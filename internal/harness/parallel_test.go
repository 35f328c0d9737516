package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	out, err := Map(context.Background(), 100, 8,
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
}

// TestMapPanicDoesNotHang is the satellite regression: a panicking fn
// must not leave the internal WaitGroup hanging or kill the process;
// the first panic is re-surfaced as an error carrying its stack.
func TestMapPanicDoesNotHang(t *testing.T) {
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = Map(context.Background(), 20, 4,
			func(_ context.Context, i int) (int, error) {
				if i == 3 {
					panic(fmt.Sprintf("boom at %d", i))
				}
				return i, nil
			})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map hung on a panicking task")
	}
	if err == nil {
		t.Fatal("expected error from panicking task")
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 3 {
		t.Fatalf("err = %v, want TaskError for index 3", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "parallel_test.go") {
		t.Error("panic stack does not point at the panicking test function")
	}
	if len(out) != 20 {
		t.Errorf("partial results slice has length %d, want 20", len(out))
	}
}

// TestMapFirstErrorCancels: a failing task surfaces as a TaskError for
// its index, and after it undispatched tasks are skipped.
func TestMapFirstErrorCancels(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(context.Background(), 100, 1,
		func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			if i == 2 {
				return 0, errors.New("fail")
			}
			return i, nil
		})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 2 {
		t.Fatalf("err = %v, want TaskError for index 2", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("tasks run after first error: %d calls, want 3 (0,1,2)", got)
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := Map(ctx, 10, 2,
		func(_ context.Context, i int) (int, error) { calls.Add(1); return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d tasks ran under a cancelled context", calls.Load())
	}
}

// TestMapNoRetryOnPermanentError: a failing task runs exactly once and
// its error surfaces unchanged inside a TaskError for its index.
func TestMapNoRetryOnPermanentError(t *testing.T) {
	var tries atomic.Int64
	cause := errors.New("deterministic failure")
	_, err := Map(context.Background(), 1, 1,
		func(_ context.Context, i int) (int, error) {
			tries.Add(1)
			return 0, cause
		})
	if err == nil {
		t.Fatal("expected error")
	}
	if tries.Load() != 1 {
		t.Errorf("failing task ran %d times, want 1", tries.Load())
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 || !errors.Is(err, cause) {
		t.Errorf("err = %v, want TaskError for index 0 wrapping the cause", err)
	}
}

func TestRecover(t *testing.T) {
	if err := Recover(func() error { return nil }); err != nil {
		t.Errorf("clean fn: %v", err)
	}
	sentinel := errors.New("sentinel")
	err := Recover(func() error { panic(sentinel) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Error("error panic values must unwrap for errors.Is")
	}
	if StackOf(err) == nil {
		t.Error("StackOf must find the recovered stack")
	}
}
