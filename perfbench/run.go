package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"concord/internal/locks"
)

// workers is the closed loop's client count: one per CPU.
func workers() int { return runtime.NumCPU() }

const (
	// epochSeconds is the target length of one measured epoch. A run is
	// split into epochs, each on a freshly built stack, and reports the
	// median over them: host noise that slows one epoch does not move
	// the result, and a leaking workload's heap is bounded per epoch.
	epochSeconds = 2.5
	warmDur      = 400 * time.Millisecond // past the profiler's first window
	warmMaxDur   = 3 * time.Second
	traceCap     = 1 << 17 // spans kept per worker in a traced run
	tracePairs   = 4       // untraced/traced phase pairs in a traced run
	// setupReps is how many throwaway stacks a run sets up for setup_s,
	// besides the stacks it measures on.
	setupReps = 25
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stepMedian returns the median of one set-up step over every stack
// built in the run, in the given unit.
func stepMedian(stacks []*stack, step func(*stack) time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(stacks))
	for i, st := range stacks {
		xs[i] = float64(step(st)) / float64(unit)
	}
	return median(xs)
}

// prepared is a set-up stack with its app, warmed up.
type prepared struct {
	st  *stack
	app app
}

// prepare builds a fresh stack for one epoch and warms it up: caches
// fill, parkers settle and the continuous profiler completes a window,
// so lock_stats_read reads live data; read_mostly also waits for
// occ-gate.pol to promote the lock (bounded by warmMaxDur).
func prepare(cfg config, sp *spec, srcs []string) (*prepared, error) {
	st, err := buildStack(sp, srcs)
	if err != nil {
		return nil, err
	}
	a := sp.newApp(st)
	var until func() bool
	if occ, ok := st.locks[0].(locks.OCCCapable); ok {
		until = func() bool { return occ.OCCStats().Promoted }
	}
	runPhase(a, phaseOpts{workers: workers(), seed: cfg.seed, stream: 0,
		dur: warmDur, until: until, maxDur: warmMaxDur, newState: a.init})
	return &prepared{st: st, app: a}, nil
}

// measure runs one phase of the prepared workload.
func (pr *prepared) measure(cfg config, stream int, dur time.Duration, opts phaseOpts) *phase {
	opts.workers, opts.seed, opts.stream, opts.dur = workers(), cfg.seed, stream, dur
	opts.corruptEvery, opts.newState = cfg.corruptEvery, pr.app.init
	return runPhase(pr.app, opts)
}

// tally accumulates the contract's correct/attempted/failed fields over
// the phases of a run.
type tally struct {
	attempted, failed, faults, open int64
}

func (t *tally) add(pr *prepared, phases ...*phase) {
	for _, p := range phases {
		t.attempted += p.ops + p.sum(func(w *worker) int64 { return w.patches + w.patchErrors })
		t.failed += p.failed
	}
	faults, open := attachmentFailures(pr.st.atts)
	t.faults += faults
	t.open += open
}

func (t *tally) fill(res *result) {
	res.Attempted = t.attempted
	res.Failed = t.failed + t.faults + t.open
	res.Correct = res.Failed == 0
	if t.faults > 0 || t.open > 0 {
		res.notes = append(res.notes, fmt.Sprintf("policy faults %d, breakers not closed %d", t.faults, t.open))
	}
}

func (t *tally) failedRatio() float64 {
	return float64(t.failed+t.faults+t.open) / float64(max(t.attempted, 1))
}

// buildStacks builds and drops n stacks for their timings.
func buildStacks(sp *spec, srcs []string, n int) ([]*stack, error) {
	var out []*stack
	for i := 0; i < n; i++ {
		st, err := buildStack(sp, srcs)
		if err != nil {
			return nil, err
		}
		out = append(out, st.timings())
	}
	return out, nil
}

func epochs(cfg config) int { return max(1, int(cfg.seconds/epochSeconds+0.5)) }

// runEndToEnd is the untraced run: every end-to-end metric. Rates are
// the median over the run's epochs; latency percentiles pool every
// epoch's samples, which keeps a tail set by rare stalls steadier than
// a median of per-epoch tails.
func runEndToEnd(cfg config, sp *spec, srcs []string) (*result, error) {
	var stacks []*stack
	var tl tally
	var opsPerS, allocs []float64
	var lats, writes, patches []*sampler
	var ops, heldChecks, heldErrors int64
	n := epochs(cfg)
	for e := 0; e < n; e++ {
		// Spread the set-up reps over the epochs, so setup_s samples the
		// host across the whole run rather than one moment of it.
		reps, err := buildStacks(sp, srcs, (setupReps+n-1)/n)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, reps...)
		pr, err := prepare(cfg, sp, srcs)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, pr.st.timings())
		p := pr.measure(cfg, 1+e, secs(cfg.seconds/float64(n)), phaseOpts{})
		tl.add(pr, p)

		opsPerS = append(opsPerS, float64(p.ops)/p.elapsed.Seconds())
		allocs = append(allocs, float64(p.mallocs)/float64(max(p.ops, 1)))
		lats = append(lats, p.samplers(func(w *worker) *sampler { return &w.lat })...)
		writes = append(writes, p.samplers(func(w *worker) *sampler { return &w.wlat })...)
		patches = append(patches, p.samplers(func(w *worker) *sampler { return &w.patch })...)
		ops += p.ops
		heldChecks += p.sum(func(w *worker) int64 { return w.heldChecks })
		heldErrors += p.sum(func(w *worker) int64 { return w.heldErrors })
	}
	res := &result{}
	tl.fill(res)
	lat, nlat := quantiles(lats, 0.5, 0.99)
	wl, nw := quantiles(writes, 0.99)
	pl, np := quantiles(patches, 0.5, 0.99)

	res.set("ops_per_s", median(opsPerS), "1/s")
	res.set("op_p50_us", lat[0]/1e3, "us")
	res.set("op_p99_us", lat[1]/1e3, "us")
	res.set("write_p99_us", wl[0]/1e3, "us")
	res.set("allocs_per_op", median(allocs), "count")
	res.set("setup_s", stepMedian(stacks, func(s *stack) time.Duration { return s.total }, time.Second), "s")

	res.notes = append(res.notes,
		fmt.Sprintf("held_errors_ratio %.4g (%d of %d held-lock checks wrong)", ratio(heldErrors, heldChecks), heldErrors, heldChecks),
		fmt.Sprintf("failed_ratio %.4g (%d of %d)", tl.failedRatio(), res.Failed, res.Attempted),
		fmt.Sprintf("patch_p50_us %.6g us, patch_p99_us %.6g us", pl[0]/1e3, pl[1]/1e3),
		fmt.Sprintf("%d epochs, %d ops, %d workers; samples: op latency %d, writes %d, patches %d; %d set-ups",
			n, ops, workers(), nlat, nw, np, len(stacks)),
	)
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTraced is the per-layer run. On one stack it alternates untraced
// and traced phases (their throughput ratio is the tracing overhead,
// and alternating keeps host drift out of it), derives the lock
// metrics from the spans, times the control and data planes, and
// spends the rest of the run on the layer ladder.
func runTraced(cfg config, sp *spec, srcs []string) (*result, error) {
	stacks, err := buildStacks(sp, srcs, setupReps)
	if err != nil {
		return nil, err
	}
	pr, err := prepare(cfg, sp, srcs)
	if err != nil {
		return nil, err
	}
	stacks = append(stacks, pr.st.timings())

	// The alternating phases take a tenth of the run, the ladder most of
	// the rest.
	phaseDur := secs(cfg.seconds / 20 / tracePairs)
	trs := make([]*tracer, workers())
	epoch := time.Now()
	for i := range trs {
		trs[i] = newTracer(epoch, traceCap, i)
	}
	var tl tally
	var plainOps, tracedOps int64
	var plainTime, tracedTime time.Duration
	var heldChecks, heldErrors int64
	patches := newSampler(1 << 14) // allocated before heap0, like the tracers
	var every uint64
	heap0 := heapAfterGC()
	for i := 0; i < tracePairs; i++ {
		plain := pr.measure(cfg, 1+2*i, phaseDur, phaseOpts{})
		// Trace one op in every, sized from the untraced phase just run so
		// this traced phase fills at most half of its share of the span
		// buffers left.
		used := 0
		for _, tr := range trs {
			used = max(used, len(tr.spans))
		}
		share := float64(traceCap-used) / float64(tracePairs-i)
		perWorker := float64(plain.ops) / float64(workers())
		every = max(every, uint64(2*perWorker*float64(pr.app.spansPerOp())/share)+1)
		traced := pr.measure(cfg, 2+2*i, phaseDur, phaseOpts{tracers: trs, traceEvery: every})
		tl.add(pr, plain, traced)
		plainOps, plainTime = plainOps+plain.ops, plainTime+plain.elapsed
		tracedOps, tracedTime = tracedOps+traced.ops, tracedTime+traced.elapsed
		for _, w := range plain.workers {
			for _, v := range w.patch.buf {
				patches.add(v)
			}
		}
		heldChecks += plain.sum(func(w *worker) int64 { return w.heldChecks })
		heldErrors += plain.sum(func(w *worker) int64 { return w.heldErrors })
	}

	heapGrowth := heapAfterGC() - heap0
	res := &result{}
	res.set("heap_bytes_per_op", float64(heapGrowth)/float64(max(plainOps+tracedOps, 1)), "B")
	res.set("held_errors_ratio", ratio(heldErrors, heldChecks), "ratio")
	pl, _ := quantiles([]*sampler{&patches}, 0.5, 0.99)
	res.set("patch_p50_us", pl[0]/1e3, "us")
	res.set("patch_p99_us", pl[1]/1e3, "us")
	res.set("trace.overhead_ratio", (float64(tracedOps)/tracedTime.Seconds())/(float64(plainOps)/plainTime.Seconds()), "ratio")
	lockMetrics(res, pr, trs)
	if err := layerMetrics(res, pr, stacks, srcs, int64(res.Metrics["locks.acquire_p50_ns"].Value)); err != nil {
		return nil, err
	}
	htSrcs, err := readPolicies(cfg.policyDir, specs["ht_full_stack"])
	if err != nil {
		return nil, err
	}
	ladderFailed, err := runLadder(res, cfg, htSrcs, secs(cfg.seconds*4/5))
	if err != nil {
		return nil, err
	}
	tl.failed += ladderFailed
	tl.fill(res)
	res.set("failed_ratio", tl.failedRatio(), "ratio")

	path, err := writeSpans(cfg.outDir, cfg.workload, trs)
	if err != nil {
		return nil, err
	}
	var dropped int64
	for _, tr := range trs {
		dropped += tr.dropped
	}
	res.notes = append(res.notes, layerShares(trs),
		fmt.Sprintf("spans: one op in %d traced, %d dropped, written to %s", every, dropped, path))
	return res, nil
}
