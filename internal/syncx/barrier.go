// Package syncx holds the low-level synchronization primitives shared by
// the parallel kernels: a reusable sense-reversing atomic barrier.
package syncx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Barrier is a reusable sense-reversing barrier built from two atomics.
// Waiters spin briefly, then yield. Once every worker has arrived and the
// serial section has outlasted 64 spins and 256 yields (tens of
// microseconds), they sleep until the release: a serial section may block
// on I/O, a distributed host's round trip, and the processes it waits for
// need the CPU. The fast path performs no allocation and takes no locks,
// matching the paper's requirement that phase changes be implemented with
// atomic operations alone (§5.1).
type Barrier struct {
	n        int32
	count    atomic.Int32
	gen      atomic.Uint64
	sleepers atomic.Int32 // waiters asleep on wake or about to be
	mu       sync.Mutex   // orders a release against a sleeper's last check
	wake     sync.Cond
}

// NewBarrier returns a barrier for n workers.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("syncx: barrier of zero workers")
	}
	b := &Barrier{n: int32(n)}
	b.wake.L = &b.mu
	return b
}

// Wait blocks until all n workers have arrived.
func (b *Barrier) Wait() {
	b.WaitSerial(nil)
}

// WaitSerial blocks until all n workers have arrived; the last worker to
// arrive runs fn (when non-nil) before any worker is released. This fuses
// the common "barrier → single-worker phase → barrier" sequence of the
// round-based kernels into one barrier episode, halving the number of
// full releases per round. The atomic arrival counter orders every
// worker's prior writes before fn, and the generation increment orders
// fn's writes before every worker's return. A sleeper counts itself before
// its check of the generation and the release reads the count after its
// increment, so one of the two sees the other.
func (b *Barrier) WaitSerial(fn func()) {
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		if fn != nil {
			fn()
		}
		b.count.Store(0)
		b.gen.Add(1)
		if b.sleepers.Load() > 0 {
			b.mu.Lock()
			b.wake.Broadcast()
			b.mu.Unlock()
		}
		return
	}
	for spins := 0; b.gen.Load() == gen; spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
		// A peer's compute never puts a waiter to sleep: a wake-up per
		// round would slow the in-process kernels.
		if b.count.Load() < b.n {
			spins = min(spins, 64)
		} else if spins > 64+256 {
			b.sleepers.Add(1)
			b.mu.Lock()
			for b.gen.Load() == gen {
				b.wake.Wait()
			}
			b.mu.Unlock()
			b.sleepers.Add(-1)
		}
	}
}
