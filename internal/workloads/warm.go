package workloads

import (
	"runtime"
	"sync"
	"time"

	"concord/internal/locks"
	"concord/internal/syncx/park"
	"concord/internal/task"
	"concord/internal/topology"
)

// parkWarmTimeout bounds how long WarmParked waits for a waiter to park
// before deciding the lock never parks.
const parkWarmTimeout = 50 * time.Millisecond

// WarmParked brings l's parked slow path to steady state for tasks
// before a zero-alloc measurement. Parking has one-time costs that a
// measurement must start after, not whenever a worker first parks:
//   - a task's first contended acquisition is a queue-node pool miss;
//   - its first park allocates the parker's rescue timer;
//   - the runtime's per-P wait structures (sudog caches, timer heaps)
//     grow with the most waiters ever blocked at once.
//
// So WarmParked parks each task once — holding l from a separate task
// until the waiter has parked — and then primes the runtime's wait
// structures (primeWaitCaches). A lock whose first waiter does not park
// within parkWarmTimeout is taken to be spin-only, and WarmParked
// returns at once.
//
// Call it before the tasks' workers start: the warm-up acquisitions run
// on helper goroutines, each finished before WarmParked returns.
func WarmParked(l locks.Lock, topo *topology.Topology, tasks []*task.T) {
	holder := task.New(topo)
	for _, tk := range tasks {
		l.Lock(holder)
		parks := park.Snapshot().Parks
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.Lock(tk)
			l.Unlock(tk)
		}()
		deadline := time.Now().Add(parkWarmTimeout)
		for park.Snapshot().Parks == parks && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		parked := park.Snapshot().Parks != parks
		l.Unlock(holder)
		<-done
		if !parked {
			return
		}
	}
	primeWaitCaches(256)
}

// primeWaitCaches blocks n goroutines at once, each the way a parked
// waiter blocks (a select on a channel and a timer), and then releases
// them. Each blocked goroutine holds two of the runtime's wait
// descriptors (sudogs) and one entry in its P's timer heap; released,
// the descriptors land in the per-P caches and the heaps keep their
// capacity. A P allocates a descriptor only when its own cache and the
// shared one are both empty — and a woken waiter runs on its waker's P,
// so a run of parks woken from one P drains the other P's cache into
// it — and grows its timer heap only past the most timers it has held
// at once. Until both have been stretched this far, parks allocate
// mid-measurement.
func primeWaitCaches(n int) {
	gate := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	for range n {
		go func() {
			defer done.Done()
			t := time.NewTimer(time.Minute)
			defer t.Stop()
			// A little CPU work first, so the scheduler spreads the
			// goroutines over every P instead of blocking them all on
			// the spawning one.
			for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
			}
			ready.Done()
			select {
			case <-gate:
			case <-t.C:
			}
		}()
	}
	ready.Wait()
	time.Sleep(time.Millisecond) // let the last ones block
	close(gate)
	done.Wait()
}
