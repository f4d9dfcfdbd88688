// Package par provides a bounded, deterministic parallel-for used by the
// planning hot paths (column-generation pricing in internal/flow, per-pair
// Yen enumeration in internal/segment and internal/contend).
//
// The determinism contract: For and ForWorker run f(i) exactly once for
// every index i in [0, n), and callers arrange for f(i) to write only to
// the i-th slot of pre-allocated output storage. Under that discipline the
// observable result is a pure function of the inputs — identical for any
// worker count and any goroutine schedule — so a parallel run is
// byte-identical to a serial one. The reduction (reading the slots in index
// order) happens on the caller's goroutine after For returns.
//
// Worker panics are recovered and re-raised on the caller's goroutine as a
// *WorkerPanic carrying the worker's stack, so a bug in f produces one
// attributable trace instead of killing the process from an anonymous
// goroutine. The context-aware variants (ForCtx, ForWorkerCtx) let callers
// bound a parallel loop with a deadline: cancellation is checked between
// indices, remaining indices are skipped, and the loop reports ctx.Err().
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic wraps a panic recovered from a worker goroutine. It is
// re-panicked on the caller, so deferred recovers up the caller's stack see
// the worker's failure exactly once, with the worker's stack attached.
type WorkerPanic struct {
	// Worker is the worker identity (the w of ForWorker's f).
	Worker int
	// Index is the loop index whose f call panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the point of the panic.
	Stack []byte
}

// Error implements error so recovered values can flow through error paths.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker %d panicked at index %d: %v\n%s",
		p.Worker, p.Index, p.Value, p.Stack)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Resolve maps a Workers knob to a concrete worker count: values <= 0 mean
// runtime.GOMAXPROCS(0), anything else is used as given. The result is
// additionally capped at n (no point spawning idle workers) but never
// drops below 1.
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs f(i) for every i in [0, n), using at most `workers` goroutines
// (0 = GOMAXPROCS). f must confine its writes to per-index storage; see the
// package comment for the determinism contract. workers == 1 (or n <= 1)
// runs serially on the calling goroutine with no synchronization overhead.
func For(workers, n int, f func(i int)) {
	ForWorker(workers, n, func(_, i int) { f(i) })
}

// ForWorker is For with a worker identity: f(w, i) is guaranteed w ∈
// [0, Resolve(workers, n)), and no two calls with the same w run
// concurrently. Callers use w to index pre-allocated per-worker scratch
// buffers (e.g. the layered-pricing DP arrays) without locking. Indices are
// partitioned into contiguous blocks, one block per worker, so f still runs
// exactly once per index.
func ForWorker(workers, n int, f func(w, i int)) {
	// A nil context cannot be cancelled, so the only possible error is a
	// worker panic — and that re-panics instead of returning.
	_ = ForWorkerCtx(nil, workers, n, f) //nolint:staticcheck // nil ctx is the uncancellable fast path
}

// ForCtx is For bounded by a context: between indices each worker checks
// ctx and stops early once it is cancelled. It returns ctx.Err() if the
// loop was cut short (some f(i) skipped), nil if every index ran. The
// partial writes of a cancelled loop are well-defined — each produced slot
// is complete — but the set of produced slots is schedule-dependent, so
// callers must discard the output on a non-nil return.
func ForCtx(ctx context.Context, workers, n int, f func(i int)) error {
	return ForWorkerCtx(ctx, workers, n, func(_, i int) { f(i) })
}

// ForWorkerCtx is ForWorker bounded by a context (nil = never cancelled);
// see ForCtx for the cancellation contract. A worker panic cancels nothing
// by itself, but after all workers stop it is re-panicked on the caller as
// a *WorkerPanic carrying the worker's stack.
func ForWorkerCtx(ctx context.Context, workers, n int, f func(w, i int)) error {
	if n <= 0 {
		return nil
	}
	done := ctxDone(ctx)
	workers = Resolve(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil && canceled(done) {
				return ctx.Err()
			}
			runOne(0, i, f)
		}
		return nil
	}
	// Contiguous block partition: worker w gets [w*q + min(w,r), ...) with
	// the first r blocks one element longer (q = n/workers, r = n%workers).
	q, r := n/workers, n%workers
	var wg sync.WaitGroup
	var cut atomic.Bool
	var panicked atomic.Pointer[WorkerPanic]
	start := 0
	for w := 0; w < workers; w++ {
		size := q
		if w < r {
			size++
		}
		lo, hi := start, start+size
		start = hi
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if done != nil && canceled(done) {
					cut.Store(true)
					return
				}
				if wp := runOneRecover(w, i, f); wp != nil {
					// First panic wins; others are necessarily
					// concurrent duplicates of a broken f.
					panicked.CompareAndSwap(nil, wp)
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if wp := panicked.Load(); wp != nil {
		panic(wp)
	}
	if cut.Load() {
		return ctx.Err()
	}
	return nil
}

// runOne runs f(w, i) on the caller's goroutine (serial path): a panic
// there already has the caller's stack, so it propagates untouched.
func runOne(w, i int, f func(w, i int)) {
	f(w, i)
}

// runOneRecover runs f(w, i) and converts a panic into a *WorkerPanic.
func runOneRecover(w, i int, f func(w, i int)) (wp *WorkerPanic) {
	defer func() {
		if v := recover(); v != nil {
			wp = &WorkerPanic{Worker: w, Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	f(w, i)
	return nil
}

// ctxDone returns ctx.Done() for a non-nil context, else nil (never fires).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// canceled polls a done channel without blocking.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
