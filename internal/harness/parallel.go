package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// TaskError reports which task of a Map failed.
type TaskError struct {
	Index int
	Err   error
}

// Error formats the failure.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }

// Unwrap returns the underlying task failure.
func (e *TaskError) Unwrap() error { return e.Err }

// Map evaluates fn(ctx, 0..n-1) across up to workers goroutines (<= 0
// means GOMAXPROCS) and returns the results in order.
//
// Fault tolerance, in contrast to a bare errgroup:
//
//   - A panicking fn is recovered into a *PanicError (with stack); it
//     can neither hang the internal WaitGroup nor kill sibling workers.
//   - The first failure cancels the derived context: tasks not yet
//     started are skipped, and running tasks observe ctx.Done().
//
// On failure the returned slice still holds every result completed
// before cancellation (zero values elsewhere), enabling graceful
// degradation, and the error is a *TaskError for the first failure.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     int
		mu       sync.Mutex
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				var v T
				err := Recover(func() error {
					var ferr error
					v, ferr = fn(ctx, i)
					return ferr
				})
				if err != nil {
					fail(&TaskError{Index: i, Err: err})
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return out, firstErr
}
