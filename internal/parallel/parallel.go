// Package parallel is the shared worker-pool substrate of the engine's hot
// paths (kmeans, index builds, batched search, workload replay).
//
// Its core guarantee is determinism: work is divided into chunks whose
// boundaries depend only on the problem size, never on the worker count, so
// any per-chunk partial results can be reduced in chunk order to a value
// that is bit-identical whether the job ran on 1 worker or N. This is what
// lets the engine parallelize builds while keeping tuning runs reproducible
// (workers=1 and workers=NumCPU produce identical indexes and identical
// Stats).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Parallel runs fn(chunk) for every chunk in [0, chunks) on up to n
// workers: WorkerParallel without the worker index. Chunks are claimed
// dynamically, so uneven chunk costs balance automatically; fn must
// therefore not assume any chunk-to-worker affinity. n <= 1 or chunks <= 1
// runs inline on the calling goroutine, which is also the reference
// sequential path. Parallel returns when every chunk is done.
func Parallel(n, chunks int, fn func(chunk int)) {
	WorkerParallel(n, chunks, func(_, c int) { fn(c) })
}

// WorkerCount reports how many workers WorkerParallel(n, chunks, ...) will
// actually run: the resolved worker count clamped to the chunk count.
// Callers size per-worker state (e.g. search scratch) with it.
func WorkerCount(n, chunks int) int {
	if chunks <= 0 {
		return 0
	}
	n = Workers(n)
	if n > chunks {
		n = chunks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WorkerParallel runs fn(worker, chunk) for every chunk in [0, chunks) on
// WorkerCount(n, chunks) goroutines; worker is the index of the goroutine
// running it. Each worker index is owned by exactly one goroutine for the
// whole call, so fn may keep per-worker mutable state (scratch buffers)
// indexed by it with no further synchronization. Chunks are claimed from
// one atomic counter (work stealing), so chunk→worker assignment is NOT
// deterministic — only per-chunk results reduced in chunk order are. One
// worker or one chunk runs inline on the calling goroutine.
func WorkerParallel(n, chunks int, fn func(worker, chunk int)) {
	if chunks <= 0 {
		return
	}
	n = WorkerCount(n, chunks)
	if n <= 1 || chunks == 1 {
		for c := 0; c < chunks; c++ {
			fn(0, c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fn(worker, c)
			}
		}(w)
	}
	wg.Wait()
}

// NumChunks reports how many fixed-size chunks cover total items. The
// answer depends only on (total, chunkSize), which is what makes chunked
// reductions worker-count-invariant.
func NumChunks(total, chunkSize int) int {
	if total <= 0 {
		return 0
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	return (total + chunkSize - 1) / chunkSize
}

// Chunk returns the half-open item range [lo, hi) of chunk c under the
// same fixed chunking as NumChunks.
func Chunk(c, total, chunkSize int) (lo, hi int) {
	if chunkSize < 1 {
		chunkSize = 1
	}
	lo = c * chunkSize
	hi = lo + chunkSize
	if hi > total {
		hi = total
	}
	return lo, hi
}

// ForRanges runs fn(chunk, lo, hi) over the fixed chunking of total items
// into chunkSize-sized ranges, on up to n workers. It is the common
// "parallel loop with deterministic per-chunk slots" shape: callers size
// their partial-result slices with NumChunks and reduce in chunk order.
func ForRanges(n, total, chunkSize int, fn func(chunk, lo, hi int)) {
	chunks := NumChunks(total, chunkSize)
	Parallel(n, chunks, func(c int) {
		lo, hi := Chunk(c, total, chunkSize)
		fn(c, lo, hi)
	})
}
