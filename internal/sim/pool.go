package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nord/internal/fault"
)

// RunCells runs n independent simulations, cell(ctx, i) for i in [0, n),
// on a pool of GOMAXPROCS workers — the one fan-out behind every
// multi-run experiment: LoadSweep and the paper table's rows
// (internal/paper), the degradation row's faulted cells included. Each
// simulation is single-threaded and shares nothing, so a sweep parallelises
// embarrassingly; results come back by index whatever order cells finish
// in, and with GOMAXPROCS=1 the cells simply run in index order. A cell
// that panics is reported as a *panicFailure instead of taking the pool
// down; once ctx is canceled, running cells stop within their poll
// interval and cells not yet started report the context's cause.
func RunCells(ctx context.Context, n int, cell func(ctx context.Context, i int) (Result, error)) ([]Result, []error) {
	res := make([]Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, max(1, runtime.GOMAXPROCS(0))); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if ctx.Err() != nil {
					errs[i] = context.Cause(ctx)
					continue
				}
				res[i], errs[i] = runGuarded(func() (Result, error) { return cell(ctx, i) })
			}
		}()
	}
	wg.Wait()
	return res, errs
}

// panicFailure wraps a recovered panic so sweeps can classify it as a
// runtime failure (recorded per-point) rather than a setup error.
type panicFailure struct{ cause error }

func (p *panicFailure) Error() string { return "sim: run panicked: " + p.cause.Error() }
func (p *panicFailure) Unwrap() error { return p.cause }

// runGuarded executes one simulation, converting a panic into an error so
// a single bad run cannot take down a whole worker pool mid-sweep.
func runGuarded(run func() (Result, error)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("%v", r)
			}
			err = &panicFailure{cause: cause}
			res.Err = err.Error()
		}
	}()
	return run()
}

// IsRuntimeFailure reports whether err is a structured simulation failure
// (deadlock, protocol violation, unrecoverable fault, recovered panic) as
// opposed to a configuration error or a cancellation. Resilient sweeps
// record runtime failures in the affected cell and keep going, while
// configuration errors abort the whole sweep, since every cell would fail
// identically; CLIs and the serve layer use it to distinguish "this
// design point failed" from "this request was invalid".
func IsRuntimeFailure(err error) bool {
	var de *fault.DeadlockError
	var pe *fault.ProtocolError
	var ue *fault.UnrecoverableError
	var pf *panicFailure
	return errors.As(err, &de) || errors.As(err, &pe) || errors.As(err, &ue) || errors.As(err, &pf)
}
