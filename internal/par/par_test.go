package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(8, 3); got != 3 {
		t.Fatalf("Resolve(8, 3) = %d, want 3 (capped at n)", got)
	}
	if got := Resolve(8, 0); got != 1 {
		t.Fatalf("Resolve(8, 0) = %d, want 1", got)
	}
	if got := Resolve(5, 100); got != 5 {
		t.Fatalf("Resolve(5, 100) = %d, want 5", got)
	}
}

// TestForCoversEveryIndexOnce checks the exactly-once contract across worker
// counts, including workers > n and n == 0.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 0} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			counts := make([]int32, n)
			For(workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForDeterministicSlots runs a slot-writing workload at several worker
// counts and checks the output is identical to the serial run.
func TestForDeterministicSlots(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	For(1, n, func(i int) { want[i] = i*i + 7 })
	for _, workers := range []int{2, 4, 16, 0} {
		got := make([]int, n)
		For(workers, n, func(i int) { got[i] = i*i + 7 })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForWorkerScratchIsolation checks that the worker id is in range and
// that per-worker scratch never sees concurrent use: each worker bumps its
// own counter non-atomically and the total must come out exact.
func TestForWorkerScratchIsolation(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 5, 0} {
		resolved := Resolve(workers, n)
		scratch := make([]int, resolved)
		ForWorker(workers, n, func(w, i int) {
			if w < 0 || w >= resolved {
				t.Errorf("worker id %d out of range [0,%d)", w, resolved)
			}
			scratch[w]++
		})
		total := 0
		for _, c := range scratch {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: scratch total %d, want %d", workers, total, n)
		}
	}
}

// TestForWorkerBlocksAreContiguous verifies the contiguous block partition:
// the set of indices a worker sees must form one interval, so worker-local
// state evolves in index order within each block.
func TestForWorkerBlocksAreContiguous(t *testing.T) {
	const n, workers = 103, 4
	lo := make([]int, workers)
	hi := make([]int, workers)
	for w := range lo {
		lo[w], hi[w] = n, -1
	}
	seen := make([]int, n)
	ForWorker(workers, n, func(w, i int) {
		if i < lo[w] {
			lo[w] = i
		}
		if i > hi[w] {
			hi[w] = i
		}
		seen[i] = w
	})
	for w := 0; w < workers; w++ {
		for i := lo[w]; i <= hi[w]; i++ {
			if seen[i] != w {
				t.Fatalf("worker %d's range [%d,%d] contains index %d owned by %d", w, lo[w], hi[w], i, seen[i])
			}
		}
	}
}

func TestWorkerPanicReRaised(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic not re-raised")
		}
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", v)
		}
		if wp.Index != 13 {
			t.Errorf("Index = %d, want 13", wp.Index)
		}
		if wp.Value != "boom" {
			t.Errorf("Value = %v, want boom", wp.Value)
		}
		if len(wp.Stack) == 0 || !strings.Contains(string(wp.Stack), "par_test") {
			t.Errorf("stack missing worker frames:\n%s", wp.Stack)
		}
		if !strings.Contains(wp.Error(), "index 13") {
			t.Errorf("Error() = %q", wp.Error())
		}
	}()
	For(4, 64, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
}

func TestWorkerPanicUnwrapsError(t *testing.T) {
	sentinel := errors.New("sentinel")
	defer func() {
		v := recover()
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", v)
		}
		if !errors.Is(wp, sentinel) {
			t.Error("errors.Is does not see the wrapped error")
		}
	}()
	For(2, 8, func(i int) {
		if i == 5 {
			panic(sentinel)
		}
	})
}

func TestSerialPanicHasCallerStack(t *testing.T) {
	// workers=1 runs on the calling goroutine; the panic must arrive as the
	// original value, not wrapped.
	defer func() {
		if v := recover(); v != "serial" {
			t.Fatalf("recovered %v, want raw value", v)
		}
	}()
	For(1, 3, func(i int) {
		if i == 1 {
			panic("serial")
		}
	})
}

func TestForCtxCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForWorkerCtx(ctx, workers, 1000, func(_, i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: cancellation did not cut the loop (%d ran)", workers, n)
		}
	}
}

func TestForCtxNilAndComplete(t *testing.T) {
	var ran atomic.Int64
	if err := ForWorkerCtx(nil, 3, 100, func(_, i int) { ran.Add(1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d, want 100", ran.Load())
	}
	ctx := context.Background()
	if err := ForWorkerCtx(ctx, 3, 50, func(w, i int) {}); err != nil {
		t.Fatalf("uncancelled ctx: %v", err)
	}
}
