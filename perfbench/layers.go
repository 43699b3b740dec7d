package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"time"

	"concord"
	"concord/internal/locks"
	"concord/internal/obs"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/profile"
	"concord/internal/task"
)

// execKinds are the program kinds the shipped workload policies attach;
// a workload whose policy has no program of a kind reports 0 for it.
var execKinds = []policy.Kind{
	policy.KindCmpNode, policy.KindSkipShuffle, policy.KindLockContended, policy.KindLockAcquired,
}

// nsPerCall times fn in batches of n calls and returns the median
// batch's nanoseconds per call.
func nsPerCall(n int, fn func()) float64 {
	const batches = 7
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(xs)
}

// lockMetrics derives the lock layer's metrics: acquisition latency from
// the locks.Lock spans, contention from the telemetry lock rows, and the
// optimistic tier's counters.
func lockMetrics(res *result, pr *prepared, trs []*tracer) {
	acq, _ := quantiles([]*sampler{spanDurations(trs, spLock)}, 0.5, 0.99)
	res.set("locks.acquire_p50_ns", acq[0], "ns")
	res.set("locks.acquire_p99_ns", acq[1], "ns")

	var acqs, conts int64
	for _, row := range pr.st.fw.LockRows() {
		acqs += row.Acquisitions
		conts += row.Contentions
	}
	res.set("locks.contended_ratio", float64(conts)/float64(max(acqs, 1)), "ratio")

	var abort, promotions float64
	if occ, ok := pr.st.locks[0].(locks.OCCCapable); ok {
		s := occ.OCCStats()
		abort = float64(s.Aborts) / float64(max(s.Reads+s.Aborts, 1))
		promotions = float64(s.Promotions)
	}
	res.set("locks.occ_abort_ratio", abort, "ratio")
	res.set("locks.occ_promotions", promotions, "count")
}

// freshPrograms compiles and verifies a private copy of the workload's
// policies, so microtimings never disturb the attached programs' maps
// or counters.
func freshPrograms(srcs []string) ([]*policy.Program, error) {
	var progs []*policy.Program
	for _, src := range srcs {
		u, err := concord.CompileDSL(src)
		if err != nil {
			return nil, fmt.Errorf("compiling policy copy: %w", err)
		}
		progs = append(progs, u.Programs...)
	}
	return progs, nil
}

// controlPlane times the verifier, the analyser and the JIT on fresh
// copies of the workload's programs (the set-up path runs them inside
// LoadPolicy), returning median microseconds per pass over all programs.
func controlPlane(res *result, srcs []string) error {
	const reps = 7
	var verify, analyze, lower []float64
	for r := 0; r < reps; r++ {
		var progs []*policy.Program
		for _, src := range srcs {
			u, err := concord.ParseDSL(src)
			if err != nil {
				return fmt.Errorf("compiling policy copy: %w", err)
			}
			progs = append(progs, u.Programs...)
		}
		t0 := time.Now()
		for _, p := range progs {
			if _, err := policy.Verify(p); err != nil {
				return fmt.Errorf("verifying %s: %w", p.Name, err)
			}
		}
		t1 := time.Now()
		for _, p := range progs {
			if _, err := analysis.Analyze(p); err != nil {
				return fmt.Errorf("analysing %s: %w", p.Name, err)
			}
		}
		t2 := time.Now()
		for _, p := range progs {
			if _, err := jit.Compile(p); err != nil {
				return fmt.Errorf("lowering %s: %w", p.Name, err)
			}
		}
		t3 := time.Now()
		verify = append(verify, float64(t1.Sub(t0))/1e3)
		analyze = append(analyze, float64(t2.Sub(t1))/1e3)
		lower = append(lower, float64(t3.Sub(t2))/1e3)
	}
	res.set("policy.verify_us", median(verify), "us")
	res.set("analysis.analyze_us", median(analyze), "us")
	res.set("jit.compile_us", median(lower), "us")
	return nil
}

// recordedCtx fills a hook context of kind k from one recorded
// acquisition of the run: the lock, the acquiring task and its wait.
func recordedCtx(k policy.Kind, lockID uint64, t *task.T, waitNS int64) *policy.Ctx {
	ctx := policy.NewCtx(k)
	now := uint64(time.Now().UnixNano())
	for i, f := range ctx.Layout.Fields {
		var v uint64
		switch f.Name {
		case "lock_id":
			v = lockID
		case "op":
			v = 3 // acquired
		case "task_id", "curr_task_id", "shuffler_task_id":
			v = uint64(t.ID())
		case "cpu", "curr_cpu", "shuffler_cpu":
			v = uint64(t.CPU())
		case "socket", "curr_socket", "shuffler_socket":
			v = uint64(t.Socket())
		case "prio", "curr_prio", "shuffler_prio":
			v = uint64(t.Priority())
		case "now_ns":
			v = now
		case "wait_ns", "curr_wait_ns", "shuffler_wait_ns":
			v = uint64(waitNS)
		case "queue_len":
			v = 1
		case "curr_held_mask", "shuffler_held_mask":
			v = t.HeldMask()
		}
		ctx.Words[i] = v
	}
	return ctx
}

// dataPlane times each attached program kind on the VM and on the JIT
// over a recorded context, the policy maps' helpers, the profiler's and
// telemetry's hooks, a telemetry scrape and task creation.
func dataPlane(res *result, pr *prepared, srcs []string, waitNS int64) error {
	progs, err := freshPrograms(srcs)
	if err != nil {
		return err
	}
	l := pr.st.locks[0]
	t := task.New(topo)
	env := &policy.TestEnv{CPUID: t.CPU(), NUMA: t.Socket(), Task: t.ID(), Prio: t.Priority(),
		LockStats: map[uint64]uint64{}}
	env.Now.Store(time.Now().UnixNano())
	if snap, ok := pr.st.fw.ContinuousProfiler().SnapshotFor(l.Name()); ok {
		for f := uint64(0); f <= profile.FieldReadShare; f++ {
			env.LockStats[f] = snap.Field(f)
		}
	}
	const calls = 20000
	for _, k := range execKinds {
		var vmNS, jitNS float64
		for _, p := range progs {
			if p.Kind != k {
				continue
			}
			ctx := recordedCtx(k, l.ID(), t, waitNS)
			var execErr error
			vmNS = nsPerCall(calls, func() {
				if _, err := policy.Exec(p, ctx, env); err != nil {
					execErr = err
				}
			})
			fn, err := jit.Compile(p)
			if err != nil {
				return fmt.Errorf("lowering %s: %w", p.Name, err)
			}
			jitNS = nsPerCall(calls, func() {
				if _, err := fn(ctx, env); err != nil {
					execErr = err
				}
			})
			if execErr != nil {
				return fmt.Errorf("executing %s: %w", p.Name, execErr)
			}
		}
		res.set("policy.exec_ns."+k.String(), vmNS, "ns")
		res.set("jit.exec_ns."+k.String(), jitNS, "ns")
	}

	// Map helpers, on the workload policy's hash map when it has one.
	var maps []policy.Map
	for _, p := range progs {
		maps = append(maps, p.Maps...)
	}
	sort.SliceStable(maps, func(i, j int) bool {
		return policy.MapKindOf(maps[i]) == "hash" && policy.MapKindOf(maps[j]) != "hash"
	})
	var updNS, lookNS float64
	if len(maps) > 0 {
		m := maps[0]
		key := make([]byte, m.KeySize())
		binary.LittleEndian.PutUint64(key[:min(8, len(key))], l.ID())
		val := make([]uint64, m.ValueSize()/8)
		var mapErr error
		updNS = nsPerCall(calls, func() {
			val[0]++
			if err := m.Update(key, val, t.CPU()); err != nil {
				mapErr = err
			}
		})
		lookNS = nsPerCall(calls, func() {
			if m.Lookup(key, t.CPU()) == nil {
				mapErr = fmt.Errorf("map %s lost key", m.Name())
			}
		})
		if mapErr != nil {
			return fmt.Errorf("map helper: %w", mapErr)
		}
	}
	res.set("policy.map_update_ns", updNS, "ns")
	res.set("policy.map_lookup_ns", lookNS, "ns")
	var retries uint64
	for _, row := range pr.st.fw.PolicyRows() {
		for _, m := range row.Maps {
			retries += m.Retries
		}
	}
	res.set("policy.map_retries", float64(retries), "count")

	// One uncontended acquisition's profiling events through fresh
	// observers of the kinds the stack composes.
	cp := profile.NewContinuous(profilerConfig)
	cp.SetEnabled(true)
	res.set("profile.hook_ns", hookNS(cp.Hooks(l.Name()), l.ID(), t), "ns")
	res.set("obs.hook_ns", hookNS(obs.NewTelemetry().LockHooks(l.Name()), l.ID(), t), "ns")

	reg := pr.st.fw.Telemetry().Registry
	var scrapeErr error
	res.set("obs.scrape_ms", nsPerCall(20, func() {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			scrapeErr = err
		}
	})/1e6, "ms")
	if scrapeErr != nil {
		return fmt.Errorf("telemetry scrape: %w", scrapeErr)
	}

	var sink *task.T
	res.set("task.new_ns", nsPerCall(calls, func() { sink = task.New(topo) }), "ns")
	_ = sink

	faults, _ := attachmentFailures(pr.st.atts)
	res.set("core.faults", float64(faults), "count")
	return nil
}

// hookNS is the mean cost of one profiling hook call over an
// uncontended acquire → acquired → release cycle.
func hookNS(h *locks.Hooks, lockID uint64, t *task.T) float64 {
	var fns []func(*locks.Event)
	for _, fn := range []func(*locks.Event){h.OnAcquire, h.OnAcquired, h.OnRelease} {
		if fn != nil {
			fns = append(fns, fn)
		}
	}
	if len(fns) == 0 {
		return 0
	}
	ev := &locks.Event{LockID: lockID, Task: t, NowNS: time.Now().UnixNano(), WaitNS: 100, HoldNS: 100}
	return nsPerCall(20000, func() {
		for _, fn := range fns {
			fn(ev)
		}
	}) / float64(len(fns))
}

// layerMetrics records the control-plane step timings of every set-up
// in the run and the microtimings above.
func layerMetrics(res *result, pr *prepared, stacks []*stack, srcs []string, waitNS int64) error {
	us := time.Microsecond
	res.set("policydsl.compile_us", stepMedian(stacks, func(s *stack) time.Duration { return s.compile }, us), "us")
	res.set("core.load_policy_us", stepMedian(stacks, func(s *stack) time.Duration { return s.load }, us), "us")
	res.set("core.attach_us", stepMedian(stacks, func(s *stack) time.Duration { return s.attach }, us), "us")
	res.set("livepatch.land_us", stepMedian(stacks, func(s *stack) time.Duration { return s.land }, us), "us")
	if err := controlPlane(res, srcs); err != nil {
		return err
	}
	return dataPlane(res, pr, srcs, waitNS)
}
