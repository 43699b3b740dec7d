// Package workloads ports the paper's evaluation workloads (§5) to run
// against the real lock implementations: the will-it-scale
// microbenchmarks page_fault2 and lock2 [9], the global-lock hash table
// of Triplett et al. [54], and the scenario workloads behind the §3 use
// cases (multi-lock rename chains, bimodal critical sections).
//
// Each workload runs worker goroutines with virtual CPU identities from
// internal/topology, so NUMA policies behave as they would with real
// thread pinning regardless of the host's CPU count.
package workloads

import (
	"runtime"
	"sync"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

// Result aggregates one workload run against real locks.
type Result struct {
	Ops      int64
	PerTask  []int64
	Duration time.Duration
	// AllocsPerOp is heap allocations per operation over the measured
	// phase; only populated by workloads that opt into measuring it
	// (RunMapPlane, RunOCCReadHeavy with MeasureAlloc), zero elsewhere.
	AllocsPerOp float64
	// PoolMisses is the number of lock queue-node pool misses
	// (locks.QnodeAllocs) over the measured phase, populated alongside
	// AllocsPerOp by RunOCCReadHeavy: it tells a warm-up that stopped
	// short of steady state apart from an allocating read path.
	PoolMisses int64
}

// OpsPerMSec returns throughput in operations per millisecond.
func (r Result) OpsPerMSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Duration.Nanoseconds()) / 1e6)
}

// MinMaxOps reports the least/most ops completed by any worker.
func (r Result) MinMaxOps() (min, max int64) {
	if len(r.PerTask) == 0 {
		return 0, 0
	}
	min, max = r.PerTask[0], r.PerTask[0]
	for _, v := range r.PerTask[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// HashTable is the resizable-hash-table benchmark's data structure [54]
// reduced to its locking essence: a bucketed table protected by one
// global lock. It is the Figure 2(c) workload.
type HashTable struct {
	lock    locks.Lock
	buckets [][]kv
	mask    uint64
}

type kv struct {
	k, v uint64
}

// NewHashTable builds a table with 2^order buckets protected by lock.
func NewHashTable(lock locks.Lock, order uint) *HashTable {
	n := uint64(1) << order
	return &HashTable{lock: lock, buckets: make([][]kv, n), mask: n - 1}
}

func (h *HashTable) bucket(k uint64) *[]kv {
	k *= 0x9e3779b97f4a7c15
	return &h.buckets[(k>>32)&h.mask]
}

// Put inserts or updates a key under the global lock.
func (h *HashTable) Put(t *task.T, k, v uint64) {
	h.lock.Lock(t)
	b := h.bucket(k)
	for i := range *b {
		if (*b)[i].k == k {
			(*b)[i].v = v
			h.lock.Unlock(t)
			return
		}
	}
	*b = append(*b, kv{k, v})
	h.lock.Unlock(t)
}

// Get looks a key up under the global lock.
func (h *HashTable) Get(t *task.T, k uint64) (uint64, bool) {
	h.lock.Lock(t)
	b := h.bucket(k)
	for i := range *b {
		if (*b)[i].k == k {
			v := (*b)[i].v
			h.lock.Unlock(t)
			return v, true
		}
	}
	h.lock.Unlock(t)
	return 0, false
}

// Delete removes a key under the global lock.
func (h *HashTable) Delete(t *task.T, k uint64) bool {
	h.lock.Lock(t)
	b := h.bucket(k)
	for i := range *b {
		if (*b)[i].k == k {
			(*b)[i] = (*b)[len(*b)-1]
			*b = (*b)[:len(*b)-1]
			h.lock.Unlock(t)
			return true
		}
	}
	h.lock.Unlock(t)
	return false
}

// Len counts entries (takes the lock).
func (h *HashTable) Len(t *task.T) int {
	h.lock.Lock(t)
	n := 0
	for i := range h.buckets {
		n += len(h.buckets[i])
	}
	h.lock.Unlock(t)
	return n
}

// HashTableConfig parameterizes RunHashTable.
type HashTableConfig struct {
	Workers      int
	OpsPerWorker int
	Keys         uint64  // key space size
	ReadFraction float64 // fraction of Get operations
	TableOrder   uint
}

// RunHashTable drives the global-lock hash table with a mixed workload
// and returns its throughput (Figure 2(c), Table F2c).
func RunHashTable(lock locks.Lock, topo *topology.Topology, cfg HashTableConfig) Result {
	if cfg.TableOrder == 0 {
		cfg.TableOrder = 10
	}
	if cfg.Keys == 0 {
		cfg.Keys = 4096
	}
	h := NewHashTable(lock, cfg.TableOrder)

	res := Result{PerTask: make([]int64, cfg.Workers)}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := task.New(topo)
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < cfg.OpsPerWorker; i++ {
				k := next() % cfg.Keys
				if float64(next()%1000)/1000 < cfg.ReadFraction {
					h.Get(tk, k)
				} else if next()&1 == 0 {
					h.Put(tk, k, uint64(i))
				} else {
					h.Delete(tk, k)
				}
				res.PerTask[w]++
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	for _, v := range res.PerTask {
		res.Ops += v
	}
	return res
}
