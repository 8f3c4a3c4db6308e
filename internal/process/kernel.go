package process

import (
	"sync"
	"sync/atomic"

	"cobrawalk/internal/rng"
)

// KernelChunk is the chunk grain of the round kernel: the number of
// active-set entries (cobra) or candidates (bips) one work chunk covers.
// The grain is part of the stream layout — chunk boundaries, and
// therefore the per-chunk RNG streams, depend only on the data (the
// active-set or candidate count), never on the worker count — so
// changing it changes results the same way changing a seed would. Code
// that reproduces the engines' draws (the difftest reference engines)
// cuts its rounds with this constant.
//
// 2048 entries × K pushes ≈ 4k random CSR gathers per chunk: coarse
// enough that chunk-claim traffic (one atomic add) and the per-chunk
// reseed are noise, fine enough that a 10^5-vertex frontier splits into
// ~50 chunks for dynamic load balancing across 8 workers.
const KernelChunk = 2048

// chunksFor returns the number of KernelChunk-sized chunks covering
// items entries.
func chunksFor(items int) int {
	return (items + KernelChunk - 1) / KernelChunk
}

// chunkRunner is the per-round work an engine hands the pool:
// execute chunk `chunk` using the pool's worker-private generator
// rands[worker]. Implementations must touch only chunk-owned staging
// regions (plus read-only shared state) — the pool provides the
// happens-before edges between dispatch, the chunk runs and the merge,
// but no mutual exclusion.
type chunkRunner interface {
	runChunk(worker, chunk int)
}

// kernelPool executes one round's chunk grid across a fixed set of
// workers. The calling goroutine is worker 0; workers 1..W-1 are
// persistent helper goroutines started at construction and parked on
// per-helper wake channels between rounds, so a dispatch costs channel
// sends and a WaitGroup join — no goroutine creation, no allocation.
//
// Chunks are claimed dynamically through one atomic counter: which
// worker runs which chunk is scheduling, not semantics, because every
// chunk derives its own RNG stream from (roundSeed, chunkIndex) and
// writes to its own staging region. Results are therefore byte-identical
// for every worker count, including 1 (pure inline execution).
//
// The pool never references its owning engine between rounds (runner is
// cleared after every dispatch), so an engine dropped by its caller
// becomes unreachable; a runtime.AddCleanup hook on the engine then
// closes quit and the helpers exit. Engines are not safe for concurrent
// use, so at most one dispatch runs at a time.
type kernelPool struct {
	// rands[w] is worker w's private generator, reseeded per chunk via
	// ReseedStream(roundSeed, chunk).
	rands []*rng.Rand

	runner    chunkRunner
	numChunks int
	next      atomic.Int64

	start []chan struct{} // start[i] wakes helper worker i+1
	wg    sync.WaitGroup
	quit  chan struct{}
}

// newKernelPool returns a pool with the given total worker count
// (including the calling goroutine; values below 1 mean 1); workers-1
// helper goroutines are started immediately.
func newKernelPool(workers int) *kernelPool {
	if workers < 1 {
		workers = 1
	}
	kp := &kernelPool{
		rands: make([]*rng.Rand, workers),
		start: make([]chan struct{}, workers-1),
		quit:  make(chan struct{}),
	}
	for i := range kp.rands {
		kp.rands[i] = rng.New(0)
	}
	for i := range kp.start {
		kp.start[i] = make(chan struct{}, 1)
		go kp.serve(i + 1)
	}
	return kp
}

// workers returns the total worker count, calling goroutine included.
func (kp *kernelPool) workers() int { return len(kp.start) + 1 }

// stop terminates the helper goroutines. Idempotence is not required:
// it is called exactly once, by the owning engine's cleanup hook.
func (kp *kernelPool) stop() { close(kp.quit) }

// dispatch runs chunks 0..numChunks-1 of run and returns when all have
// completed. Only as many helpers as there are chunks beyond the
// caller's first claim are woken, so tiny rounds stay single-threaded
// with zero synchronisation beyond the (uncontended) atomic claims.
func (kp *kernelPool) dispatch(run chunkRunner, numChunks int) {
	if numChunks <= 0 {
		return
	}
	kp.runner = run
	kp.numChunks = numChunks
	kp.next.Store(0)
	helpers := len(kp.start)
	if helpers > numChunks-1 {
		helpers = numChunks - 1
	}
	kp.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		kp.start[i] <- struct{}{}
	}
	kp.drain(0)
	kp.wg.Wait()
	// Drop the engine reference so an idle pool keeps nothing alive and
	// the engine's cleanup hook can fire once its caller lets go of it.
	kp.runner = nil
}

// drain claims and runs chunks until the grid is exhausted.
func (kp *kernelPool) drain(worker int) {
	for {
		c := int(kp.next.Add(1)) - 1
		if c >= kp.numChunks {
			return
		}
		kp.runner.runChunk(worker, c)
	}
}

// serve is the helper-goroutine loop: park until woken (or the pool is
// stopped), drain the chunk grid, signal completion.
func (kp *kernelPool) serve(worker int) {
	for {
		select {
		case <-kp.quit:
			return
		case <-kp.start[worker-1]:
			kp.drain(worker)
			kp.wg.Done()
		}
	}
}
