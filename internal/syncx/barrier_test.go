package syncx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierSynchronizesPhases(t *testing.T) {
	const workers = 8
	const rounds = 200
	b := NewBarrier(workers)
	var errs atomic.Int64
	var wg sync.WaitGroup
	counts := make([]atomic.Int64, rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counts[r].Add(1)
				b.Wait()
				// After the barrier every worker must observe all arrivals
				// of this round.
				if counts[r].Load() != workers {
					errs.Add(1)
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d barrier violations", errs.Load())
	}
}

func TestBarrierSingleWorker(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 1000; i++ {
		b.Wait() // must never block
	}
}

func TestBarrierHappensBefore(t *testing.T) {
	// Writes before Wait must be visible after Wait (checked under -race).
	const workers = 4
	b := NewBarrier(workers)
	data := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				data[w] = r
				b.Wait()
				sum := 0
				for _, v := range data {
					sum += v
				}
				if sum != workers*r {
					t.Errorf("round %d: sum=%d", r, sum)
				}
				b.Wait()
			}
		}(w)
	}
	wg.Wait()
}

func TestBarrierWaitSerial(t *testing.T) {
	// The serial section must run exactly once per episode, after every
	// arrival and before any release (checked under -race as well).
	const workers = 4
	const rounds = 100
	b := NewBarrier(workers)
	arrivals := make([]int, workers)
	var serialRuns, sum int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				arrivals[w] = r + 1
				b.WaitSerial(func() {
					serialRuns++
					for _, a := range arrivals {
						sum += a
					}
				})
				// Every worker observes the serial section's effects.
				if serialRuns != r+1 || sum != (r+1)*(r+2)/2*workers {
					t.Errorf("round %d: serialRuns=%d sum=%d", r, serialRuns, sum)
				}
				b.Wait()
			}
		}(w)
	}
	wg.Wait()
}

func TestBarrierWakesSleepers(t *testing.T) {
	// Serial sections long enough for every waiter to go to sleep, and
	// short ones it is released from while still yielding: each runs once,
	// after every arrival, and every worker sees it (also under -race).
	const workers = 3
	const rounds = 40
	b := NewBarrier(workers)
	var serialRuns int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.WaitSerial(func() {
					if r%2 == 0 {
						time.Sleep(2 * time.Millisecond)
					}
					serialRuns++
				})
				if serialRuns != r+1 {
					t.Errorf("round %d: serialRuns=%d", r, serialRuns)
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
}

func TestBarrierZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}
