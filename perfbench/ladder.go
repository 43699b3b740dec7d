package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"concord"
	"concord/internal/core"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/task"
)

// The layer ladder runs ht_full_stack's op stream against eight stacks
// that each add one layer of the production path, interleaved batch by
// batch in one process so drift on the host hits every rung alike.
var rungNames = []string{
	"bare",         // locks: an unregistered ShflLock
	"slot",         // livepatch: registered in a Framework, no hooks
	"hooks_empty",  // an attached hook table with no hooks in it
	"adapter_noop", // core: the adapter running no-op programs
	"policy_vm",    // policy: the workload policy on the interpreter
	"policy_jit",   // policy/jit: the workload policy at its admitted tier
	"profile",      // profile: plus the continuous profiler
	"obs",          // obs: plus telemetry (the full ht_full_stack stack)
}

// noopPolicy has a no-op program for each hook kind the workload policy
// attaches.
const noopPolicy = `
policy cmp_node noop_cmp { return 0; }
policy skip_shuffle noop_skip { return 0; }
policy lock_contended noop_cont { return 0; }
policy lock_acquired noop_acq { return 0; }
`

type rung struct {
	name string
	app  *htApp
	ws   []*worker
	kick []chan int
	busy sync.WaitGroup // workers running a batch
	live sync.WaitGroup // worker goroutines

	ns     []float64 // per batch, ns per op
	ops    int64
	allocs uint64
}

// buildRung sets up one rung's stack and starts its workers.
func buildRung(i int, cfg config, srcs []string) (*rung, error) {
	name := rungNames[i]
	l := concord.NewShflLock("ladder." + name)
	var fw *core.Framework
	switch name {
	case "bare":
	case "profile":
		fw = concord.New(topo, concord.WithContinuousProfiling(profilerConfig))
	case "obs":
		fw = concord.New(topo, concord.WithTelemetry(),
			concord.WithContinuousProfiling(profilerConfig))
	default:
		fw = concord.New(topo)
	}
	if fw != nil {
		if err := fw.RegisterLock(l); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", name, err)
		}
	}
	attach := func(progs ...*policy.Program) error {
		if _, err := fw.LoadPolicy("p", progs...); err != nil {
			return err
		}
		a, err := fw.Attach(l.Name(), "p")
		if err != nil {
			return err
		}
		a.Wait()
		return nil
	}
	var err error
	switch name {
	case "hooks_empty":
		if _, err = fw.LoadNative("p", &locks.Hooks{}); err == nil {
			var a *core.Attachment
			if a, err = fw.Attach(l.Name(), "p"); err == nil {
				a.Wait()
			}
		}
	case "adapter_noop":
		var progs []*policy.Program
		if progs, err = freshPrograms([]string{noopPolicy}); err == nil {
			err = attach(progs...)
		}
	case "policy_vm", "policy_jit", "profile", "obs":
		var progs []*policy.Program
		if progs, err = freshPrograms(srcs); err == nil {
			err = attach(progs...)
		}
		if err == nil && name == "policy_vm" {
			var p interface{ Wait() }
			if p, err = fw.SetTier(l.Name(), core.TierForceVM); err == nil {
				p.Wait()
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("ladder %s: %w", name, err)
	}

	r := &rung{name: name, app: newHTTable(l, workers())}
	for w := 0; w < workers(); w++ {
		wk := &worker{id: w, rng: newRNG(cfg.seed, 100+i*1024+w), t: task.New(topo), untimed: true}
		r.app.init(wk)
		ch := make(chan int)
		r.ws, r.kick = append(r.ws, wk), append(r.kick, ch)
		r.live.Add(1)
		go func() {
			defer r.live.Done()
			for n := range ch {
				for j := 0; j < n; j++ {
					r.app.op(wk)
					wk.n++
				}
				r.busy.Done()
			}
		}()
	}
	return r, nil
}

// batch runs n ops on every worker of the rung and returns the wall time
// and heap allocations.
func (r *rung) batch(n int) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r.busy.Add(len(r.kick))
	for _, ch := range r.kick {
		ch <- n
	}
	r.busy.Wait()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return el, m1.Mallocs - m0.Mallocs
}

func (r *rung) stop() {
	for _, ch := range r.kick {
		close(ch)
	}
	r.live.Wait()
}

// runLadder builds every rung, sizes batches to ~25 ms on the slowest
// rung, then runs interleaved rounds for dur and records each rung's
// median ns/op and its allocs/op, plus the F2c normalisation bare/jit.
// It returns the number of wrong outputs the rungs' ops saw.
func runLadder(res *result, cfg config, srcs []string, dur time.Duration) (int64, error) {
	rungs := make([]*rung, len(rungNames))
	defer func() {
		for _, r := range rungs {
			if r != nil {
				r.stop()
			}
		}
	}()
	for i := range rungNames {
		r, err := buildRung(i, cfg, srcs)
		if err != nil {
			return 0, err
		}
		rungs[i] = r
	}

	// Calibrate on the full stack, which is the slowest rung, once the
	// workload's own stack (no longer reachable now that the rungs'
	// frameworks own the process-wide observers) has been collected.
	runtime.GC()
	const probe = 2000
	for _, r := range rungs {
		r.batch(probe)
	}
	el, _ := rungs[len(rungs)-1].batch(probe)
	perOp := float64(el) / float64(probe*workers())
	n := int(25e6 / (perOp * float64(workers())))
	n = min(max(n, 1000), 200000)

	deadline := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for j := range rungs {
			r := rungs[(j+round+int(cfg.seed%uint64(len(rungs))))%len(rungs)]
			el, allocs := r.batch(n)
			ops := int64(n * len(r.ws))
			r.ns = append(r.ns, float64(el)/float64(ops))
			r.ops += ops
			r.allocs += allocs
		}
	}

	var failed int64
	med := make(map[string]float64, len(rungs))
	for _, r := range rungs {
		for _, w := range r.ws {
			failed += w.failed
		}
		med[r.name] = median(r.ns)
		res.set("ladder."+r.name+".ns_per_op", med[r.name], "ns")
		res.set("ladder."+r.name+".allocs_per_op", float64(r.allocs)/float64(max(r.ops, 1)), "count")
	}
	res.set("ladder.f2c_norm", med["bare"]/med["policy_jit"], "ratio")
	res.notes = append(res.notes, fmt.Sprintf("ladder: %d rounds of %d ops per worker per rung", len(rungs[0].ns), n))
	return failed, nil
}
