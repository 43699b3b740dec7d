package workloads

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

// occWarmBatches bounds RunOCCReadHeavy's warm-up batches before an
// allocation measurement.
const occWarmBatches = 4

// OptRWLock is a readers-writer lock carrying the optimistic read tier
// (locks.RWSem, locks.SwitchableRWLock).
type OptRWLock interface {
	locks.RWLock
	OptRead(t *task.T, fn func())
}

// OCCReadHeavyConfig parameterizes RunOCCReadHeavy.
type OCCReadHeavyConfig struct {
	Workers      int
	OpsPerWorker int
	// WriterEvery injects one exclusive full-table update per this many
	// ops per worker (default 512): enough writer traffic that
	// speculation has real invalidations to survive, little enough that
	// the mix stays read-dominated — the profile shape occ-gate.pol
	// promotes on.
	WriterEvery int
	// Slots is the shared table size each read section sums (default
	// 64): long enough that a torn snapshot is possible in principle,
	// which is what sequence validation exists to reject.
	Slots int
	// MeasureAlloc brackets the measured phase with MemStats and the
	// queue-node pool-miss counter, after warming up to steady state
	// (WarmParked, then up to occWarmBatches full-size batches until
	// one allocates nothing); the speculative read path must stay at 0
	// allocs/op.
	MeasureAlloc bool
}

func (c *OCCReadHeavyConfig) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 4096
	}
	if c.WriterEvery <= 0 {
		c.WriterEvery = 512
	}
	if c.Slots <= 0 {
		c.Slots = 64
	}
}

// RunOCCReadHeavy drives a read-dominated mix against one rwsem-class
// lock: each op is either a read section summing a shared table (the
// common case) or an exclusive writer bumping every slot. Reads go
// through OptRead, so the measured throughput depends on the lock's
// optimistic tier: promoted or forced on, validated speculative
// sections bypass the reader path entirely; forced off (`lockbench
// -occ off`), every read pays the full pessimistic RLock — the
// ablation pair behind the occ_read_heavy regression cell.
//
// Table slots are word-atomic on both sides because a speculative
// section runs concurrently with the writer by design; sequence
// validation discards torn sums, it does not prevent the race.
func RunOCCReadHeavy(l OptRWLock, topo *topology.Topology, cfg OCCReadHeavyConfig) Result {
	cfg.setDefaults()
	shared := make([]atomic.Uint64, cfg.Slots)

	tasks := make([]*task.T, cfg.Workers)
	for w := range tasks {
		tasks[w] = task.New(topo)
	}
	if cfg.MeasureAlloc {
		WarmParked(l, topo, tasks)
	}

	// Workers run the op stream in batches handed out on kick, so
	// warm-up and measurement are batches on the same goroutines.
	kick := make([]chan int, cfg.Workers)
	var busy sync.WaitGroup
	for w := range kick {
		kick[w] = make(chan int)
		go func(tk *task.T, kick <-chan int) {
			// The read closure is hoisted out of the op loop so the
			// steady state allocates nothing per operation.
			var sum uint64
			read := func() {
				sum = 0
				for s := range shared {
					sum += shared[s].Load()
				}
			}
			var sink uint64
			for n := range kick {
				for i := 0; i < n; i++ {
					if i%cfg.WriterEvery == cfg.WriterEvery-1 {
						l.Lock(tk)
						for s := range shared {
							shared[s].Add(1)
						}
						l.Unlock(tk)
					} else {
						l.OptRead(tk, read)
						sink += sum
					}
					if i&255 == 255 {
						runtime.Gosched()
					}
				}
				busy.Done()
			}
			_ = sink
		}(tasks[w], kick[w])
	}
	defer func() {
		for _, ch := range kick {
			close(ch)
		}
	}()
	// batch runs n ops on every worker and returns the wall time and
	// the heap allocations (when measured).
	batch := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		if cfg.MeasureAlloc {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		busy.Add(len(kick))
		for _, ch := range kick {
			ch <- n
		}
		busy.Wait()
		el := time.Since(t0)
		if cfg.MeasureAlloc {
			runtime.ReadMemStats(&after)
		}
		return el, after.Mallocs - before.Mallocs
	}

	// Warmup settles parker timers and the promotion state before the
	// clock starts. An allocation measurement warms up to steady state:
	// parks still grow the runtime's scheduler and timer structures the
	// first few times they reach a new peak, so full-size warm-up
	// batches repeat until one runs allocation-free.
	batch(cfg.WriterEvery)
	if cfg.MeasureAlloc {
		for range occWarmBatches {
			if _, mallocs := batch(cfg.OpsPerWorker); mallocs == 0 {
				break
			}
		}
	}

	res := Result{PerTask: make([]int64, cfg.Workers)}
	missesBefore := locks.QnodeAllocs()
	el, mallocs := batch(cfg.OpsPerWorker)
	res.Duration = el
	for w := range res.PerTask {
		res.PerTask[w] = int64(cfg.OpsPerWorker)
		res.Ops += int64(cfg.OpsPerWorker)
	}
	if cfg.MeasureAlloc {
		res.PoolMisses = locks.QnodeAllocs() - missesBefore
		res.AllocsPerOp = float64(mallocs) / float64(res.Ops)
	}
	return res
}
