package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fvcache/internal/obs"
)

// Exit codes shared by every cmd/ binary.
const (
	// ExitOK: everything completed.
	ExitOK = 0
	// ExitFailure: at least one task or the run itself failed.
	ExitFailure = 1
	// ExitUsage: bad flags or arguments.
	ExitUsage = 2
	// ExitPanic: the run aborted on a recovered panic — a simulator
	// invariant broke, not an expected failure mode. Shares the value
	// of ExitUsage: both mean "an operator must intervene", and the
	// stderr epilogue disambiguates.
	ExitPanic = 2
)

// SignalContext returns a context cancelled by SIGINT/SIGTERM and,
// when timeout > 0, by the deadline — the shared -timeout flag wiring
// for the cmd/ binaries. The first signal cancels the context so
// sweeps can shut down gracefully (finish the current artifact, print
// the partial failure summary); a second signal falls through to the
// Go runtime's default handling and kills the process.
func SignalContext(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := parent
	cancelTimeout := func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	cancel := func() {
		stop()
		cancelTimeout()
	}
	return ctx, cancel
}

// Run executes fn behind the harness panic boundary: a panic comes
// back as a *PanicError instead of crashing the binary. It is the
// panic boundary of the cmd/ binaries that produce one artifact.
func Run(ctx context.Context, fn func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return Recover(func() error { return fn(ctx) })
}

// ReportRunError is the cmd/ binaries' shared failure epilogue: it
// prints "name: err" to w, dumps the recovered stack when err carries
// one, logs the outcome through the obs logger, and returns the
// process exit code — ExitOK for nil, ExitPanic for a recovered panic,
// ExitFailure for any other error. Every binary routes its top-level
// error through here instead of hand-rolling the stack-dump block.
func ReportRunError(w io.Writer, name string, err error) int {
	if err == nil {
		return ExitOK
	}
	fmt.Fprintf(w, "%s: %v\n", name, err)
	if stack := StackOf(err); stack != nil {
		fmt.Fprintf(w, "%s", stack)
		obs.Log.Error("run panicked", "cmd", name, "err", err.Error())
		return ExitPanic
	}
	obs.Log.Error("run failed", "cmd", name, "err", err.Error())
	return ExitFailure
}
