// Package harness is the fault-tolerant run layer every entry point
// routes through. It provides:
//
//   - Map: a bounded, context-aware parallel map with per-task panic
//     recovery and first-error cancellation.
//   - RunSweep: a sequential sweep runner with per-artifact panic
//     isolation and graceful degradation — one failing artifact is
//     reported (with its recovered stack trace) in a final failure
//     summary while the rest complete — plus a checkpoint manifest so
//     an interrupted sweep resumes without redoing finished artifacts.
//   - SignalContext: shared SIGINT/timeout plumbing for the cmd/
//     binaries.
//
// The design principle: simulation code may assert (panic) freely when
// an invariant breaks; the harness converts those asserts into errors
// at the task boundary so one corrupt artifact cannot take down a
// whole experiment sweep.
package harness

import (
	"errors"
	"fmt"
	"runtime/debug"

	"fvcache/internal/obs"
)

// PanicError is a recovered panic, carrying the panicking goroutine's
// stack so the failure summary can point at the faulty code.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted stack of the panicking goroutine.
	Stack []byte
}

// Error formats the panic value (without the stack; see e.Stack).
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recover runs fn, converting a panic into a *PanicError. It is the
// single panic boundary the rest of the harness builds on, so the
// telemetry panic counter is maintained here and nowhere else.
func Recover(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			obs.HarnessPanics.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// StackOf returns the recovered stack trace inside err's chain, or nil
// when err does not carry one.
func StackOf(err error) []byte {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe.Stack
	}
	return nil
}
