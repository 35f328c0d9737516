// Package harness is the fault-tolerant run layer every entry point
// routes through. It provides:
//
//   - Recover: the one panic boundary, turning a panic into a
//     *PanicError that carries the panicking goroutine's stack.
//   - Map: a bounded, context-aware parallel map with per-task panic
//     recovery and first-error cancellation.
//   - Manifest: the checkpoint file format fvcache.Sweep keeps in an
//     output directory, so an interrupted sweep resumes without
//     redoing finished artifacts.
//   - The cmd/ binaries' shared flags, SIGINT/timeout context, exit
//     codes and failure epilogue.
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
