package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"concord"
	"concord/internal/core"
	"concord/internal/locks"
	"concord/internal/policy"
)

// spec describes one workload's stack: which shipped policies are loaded
// as one policy, which locks exist and which of them it attaches to.
type spec struct {
	name     string
	policies []string // .pol files whose programs form one policy
	policy   string   // name the combined policy is loaded under
	pattern  string   // AttachAll pattern
	newLocks func() []locks.Lock
	newApp   func(st *stack) app
}

var specs = map[string]*spec{
	"ht_full_stack": {
		name:     "ht_full_stack",
		policies: []string{"contention-gate.pol", "profile-waits.pol"},
		policy:   "ht",
		pattern:  "ht.global",
		newLocks: func() []locks.Lock { return []locks.Lock{concord.NewShflLock("ht.global")} },
		newApp:   newHTApp,
	},
	"read_mostly": {
		name:     "read_mostly",
		policies: []string{"occ-gate.pol"},
		policy:   "occ",
		pattern:  "pf.mmap_sem",
		newLocks: func() []locks.Lock { return []locks.Lock{concord.NewRWSem("pf.mmap_sem")} },
		newApp:   newRMApp,
	},
	"session_churn": {
		name:     "session_churn",
		policies: []string{"inheritance.pol", "profile-waits.pol"},
		policy:   "session",
		pattern:  "room.*",
		newLocks: func() []locks.Lock {
			out := make([]locks.Lock, sessionRooms)
			for i := range out {
				out[i] = concord.NewShflLock(fmt.Sprintf("room.%03d", i))
			}
			return out
		},
		newApp: newSessionApp,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// readPolicies loads the workload's .pol sources (file I/O is not part
// of the timed set-up).
func readPolicies(dir string, sp *spec) ([]string, error) {
	srcs := make([]string, len(sp.policies))
	for i, f := range sp.policies {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, fmt.Errorf("reading policy: %w", err)
		}
		srcs[i] = string(b)
	}
	return srcs, nil
}

// profilerConfig samples 1 in 64 events, the production default, over
// 250 ms windows: a freshly built stack's policies read live profile
// data after a short warm-up, and an epoch spans many windows of the
// policies' feedback.
var profilerConfig = concord.ContinuousProfilerConfig{Window: 250 * time.Millisecond}

// stack is one fully set-up production stack.
type stack struct {
	fw    *core.Framework
	locks []locks.Lock
	atts  []*core.Attachment

	// Set-up step timings (the control-plane path an application runs).
	compile, load, attach, land time.Duration
	total                       time.Duration
}

// buildStack runs the application's set-up path once, timing each
// step: framework with telemetry and continuous profiling, DSL compile,
// lock registration, LoadPolicy (verify, analyse, tier choice), AttachAll
// and the wait for every attach patch to land.
func buildStack(sp *spec, srcs []string) (*stack, error) {
	st := &stack{}
	// Time set-up in a quiet heap: a collection still running from the
	// previous epoch would otherwise land in some set-ups and not others.
	runtime.GC()
	t0 := time.Now()
	st.fw = concord.New(topo,
		concord.WithTelemetry(),
		concord.WithContinuousProfiling(profilerConfig))

	c0 := time.Now()
	var progs []*policy.Program
	for _, src := range srcs {
		unit, err := concord.ParseDSL(src)
		if err != nil {
			return nil, fmt.Errorf("compiling %s policy: %w", sp.name, err)
		}
		progs = append(progs, unit.Programs...)
	}
	st.compile = time.Since(c0)

	st.locks = sp.newLocks()
	for _, l := range st.locks {
		if err := st.fw.RegisterLock(l); err != nil {
			return nil, fmt.Errorf("registering %s: %w", l.Name(), err)
		}
	}

	l0 := time.Now()
	if _, err := st.fw.LoadPolicy(sp.policy, progs...); err != nil {
		return nil, fmt.Errorf("loading %s: %w", sp.policy, err)
	}
	st.load = time.Since(l0)

	a0 := time.Now()
	var err error
	st.atts, err = st.fw.AttachAll(sp.pattern, sp.policy)
	if err != nil {
		return nil, fmt.Errorf("attaching %s: %w", sp.policy, err)
	}
	st.attach = time.Since(a0)

	w0 := time.Now()
	for _, a := range st.atts {
		a.Wait()
	}
	st.land = time.Since(w0)
	st.total = time.Since(t0)
	return st, nil
}

// timings returns a copy of the stack holding only its set-up step
// timings, so a run can keep every set-up's timings without keeping
// the stacks alive.
func (st *stack) timings() *stack {
	return &stack{compile: st.compile, load: st.load, attach: st.attach, land: st.land, total: st.total}
}

// attachmentFailures counts policy faults and breakers that left closed.
func attachmentFailures(atts []*core.Attachment) (faults, open int64) {
	for _, a := range atts {
		faults += a.Faults()
		if a.Breaker() != core.BreakerClosed {
			open++
		}
	}
	return faults, open
}
