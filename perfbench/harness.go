package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/task"
)

// app is one workload's application logic over a set-up stack. op runs
// one operation on worker w; control runs on worker 0 after each of its
// ops (inline control-plane calls); check runs once after the phase and
// returns the number of wrong outputs it finds in shared state.
type app interface {
	init(w *worker) // per-worker state, before the worker's first op
	op(w *worker)
	control(w *worker)
	check() int64
	spansPerOp() int // spans one traced op records
}

// rng is a splitmix64 stream: a worker's op stream is a pure function of
// the run seed and the worker index.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream int) rng {
	r := rng{s: seed*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampler keeps a uniform subsample of a stream of durations in a fixed
// buffer: when full it drops every other sample and halves its rate, so
// memory stays bounded however long the run.
type sampler struct {
	buf    []int64
	stride uint64
	n      uint64
}

func newSampler(capacity int) sampler {
	return sampler{buf: make([]int64, 0, capacity), stride: 1}
}

func (s *sampler) add(ns int64) {
	s.n++
	if s.n%s.stride != 0 {
		return
	}
	if len(s.buf) == cap(s.buf) {
		half := s.buf[:0]
		for i := 1; i < len(s.buf); i += 2 {
			half = append(half, s.buf[i])
		}
		s.buf = half
		s.stride *= 2
	}
	s.buf = append(s.buf, ns)
}

// quantiles merges samplers and returns the q-quantiles (nearest rank)
// and the number of samples they were taken from.
func quantiles(ss []*sampler, qs ...float64) ([]float64, int) {
	var all []int64
	for _, s := range ss {
		all = append(all, s.buf...)
	}
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, q := range qs {
		k := int(q*float64(len(all)+1)) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(all) {
			k = len(all) - 1
		}
		out[i] = float64(all[k])
	}
	return out, len(all)
}

// latencyEvery is the op-latency sampling period: one op in this many is
// timed from outside (writes and sessions are always timed).
const latencyEvery = 8

// worker is one closed-loop load generator and its counters. The
// padding keeps two workers' hot counters off a shared cache line.
type worker struct {
	_   [64]byte
	id  int
	rng rng
	t   *task.T // the worker's task (workloads that keep one)
	n   uint64  // ops started

	ops, failed            int64
	heldChecks, heldErrors int64
	patches, patchErrors   int64

	lat, wlat, patch sampler

	untimed      bool // ladder workers: no latency sampling
	corruptEvery int64
	checked      int64 // outputs checked (for corruption)

	tr         *tracer // non-nil in traced phases
	traceEvery uint64
	cur        *tracer // tr for ops selected for tracing, else nil
	state      any     // per-worker app state
	_          [64]byte
}

// corrupt reports whether the next checked output should be corrupted
// (the smoke test's deliberately wrong output).
func (w *worker) corrupt() bool {
	w.checked++
	return w.corruptEvery > 0 && w.checked%w.corruptEvery == 0
}

// phase is one measured (or warm-up) pass of the closed loop.
type phase struct {
	workers []*worker
	elapsed time.Duration
	ops     int64
	failed  int64 // worker-counted failures plus check() findings

	mallocs uint64
}

func (p *phase) samplers(pick func(*worker) *sampler) []*sampler {
	out := make([]*sampler, len(p.workers))
	for i, w := range p.workers {
		out[i] = pick(w)
	}
	return out
}

func (p *phase) sum(pick func(*worker) int64) int64 {
	var s int64
	for _, w := range p.workers {
		s += pick(w)
	}
	return s
}

// phaseOpts configures runPhase.
type phaseOpts struct {
	workers      int
	seed         uint64
	stream       int // separates warm-up, untraced and traced op streams
	dur          time.Duration
	until        func() bool // optional: a warm-up also runs until this holds
	maxDur       time.Duration
	corruptEvery int64
	tracers      []*tracer // one per worker; nil = untraced
	traceEvery   uint64    // trace one op in this many
	newState     func(w *worker)
}

// runPhase runs a closed loop of opts.workers workers against a for
// opts.dur and measures it: wall time, ops and allocations. Worker 0
// also runs a's control-plane calls inline.
func runPhase(a app, opts phaseOpts) *phase {
	p := &phase{workers: make([]*worker, opts.workers)}
	for i := range p.workers {
		w := &worker{
			id:           i,
			rng:          newRNG(opts.seed, opts.stream*1024+i),
			lat:          newSampler(1 << 16),
			wlat:         newSampler(1 << 16),
			patch:        newSampler(1 << 14),
			corruptEvery: opts.corruptEvery,
			traceEvery:   1,
		}
		if opts.tracers != nil {
			w.tr = opts.tracers[i]
			w.traceEvery = max(opts.traceEvery, 1)
		}
		if opts.newState != nil {
			opts.newState(w)
		}
		p.workers[i] = w
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			<-start
			for !stop.Load() {
				if w.tr != nil && w.n%w.traceEvery == 0 {
					w.cur = w.tr
				} else {
					w.cur = nil
				}
				a.op(w)
				w.n++
				if w.id == 0 {
					a.control(w)
				}
			}
		}(w)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	close(start)
	// One sleep for the whole phase: a polling loop here would keep
	// taking a CPU away from the workers.
	time.Sleep(opts.dur)
	for hard := t0.Add(opts.maxDur); opts.until != nil && !opts.until() && time.Now().Before(hard); {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.ops = p.sum(func(w *worker) int64 { return w.ops })
	p.failed = p.sum(func(w *worker) int64 { return w.failed }) + a.check()
	return p
}

// holdCheck records one held-lock check: the task should hold exactly
// the locks ids and nothing else.
func (w *worker) holdCheck(t *task.T, ids ...uint64) {
	w.heldChecks++
	ok := t.HeldCount() == len(ids)
	for _, id := range ids {
		ok = ok && t.Holds(id)
	}
	if !ok {
		w.heldErrors++
	}
}

// heapAfterGC completes a collection and returns the live heap.
func heapAfterGC() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
