package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/task"
)

// allKindsSrc has one program per hook kind. Each one allowed to write
// maps records a context field into seen[slot], so a test can check
// what the program observed; the recorded fields include the
// conditionally-filled ones (reader, curr_preempted) that must read 0
// when not set. The read-only shuffling kinds answer through their
// return value.
const allKindsSrc = `
map seen array(value = 8, entries = 8);
policy cmp_node cmp { return ctx.curr_socket == ctx.shuffler_socket; }
policy skip_shuffle skip { return ctx.shuffler_prio == 0; }
policy schedule_waiter sched { seen[2] = ctx.curr_preempted; return 0; }
policy lock_acquire acq { seen[3] = ctx.reader; return 0; }
policy lock_contended cont { seen[4] = ctx.queue_len; return 0; }
policy lock_acquired acqd { seen[5] = ctx.reader; return 0; }
policy lock_release rel { seen[6] = ctx.hold_ns; return 0; }
`

// Slots of seen written by each program of allKindsSrc.
const (
	seenSched = iota + 2
	seenAcquire
	seenContended
	seenAcquired
	seenRelease
)

// allKindsPolicy loads allKindsSrc into f and returns its seen map.
func allKindsPolicy(t *testing.T, f *Framework, name string) (*Policy, policy.Map) {
	t.Helper()
	unit, err := policydsl.CompileAndVerify(allKindsSrc)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := f.LoadPolicy(name, unit.Programs...)
	if err != nil {
		t.Fatal(err)
	}
	return pol, unit.Maps["seen"]
}

// seenAt reads slot i of an array map written by allKindsSrc.
func seenAt(m policy.Map, i int) uint64 {
	key := make([]byte, m.KeySize())
	binary.LittleEndian.PutUint32(key, uint32(i))
	if v := m.Lookup(key, 0); v != nil {
		return v[0]
	}
	return 0
}

// hookArgs is one invocation's worth of arguments for every hook kind,
// built once so a measured fire allocates only what the hooks do.
type hookArgs struct {
	shuffler, curr locks.Waiter
	shuffle        locks.ShuffleInfo
	wait           locks.WaitInfo
	ev             locks.Event
}

func newHookArgs(lockID uint64, shuffler, curr *task.T) *hookArgs {
	a := &hookArgs{}
	a.shuffler.Task, a.curr.Task = shuffler, curr
	a.shuffle = locks.ShuffleInfo{LockID: lockID, QueueLen: 3, Round: 1, Batch: 1,
		Shuffler: &a.shuffler, Curr: &a.curr}
	a.wait = locks.WaitInfo{LockID: lockID, QueueLen: 2, WaitersAhead: 1, Curr: &a.shuffler}
	a.ev = locks.Event{LockID: lockID, Task: shuffler, QueueLen: 1, HoldNS: 5}
	return a
}

// fireAll invokes every hook of h once on a's arguments.
func (a *hookArgs) fireAll(h *locks.Hooks) {
	h.SkipShuffle(&a.shuffle)
	h.CmpNode(&a.shuffle)
	h.ScheduleWaiter(&a.wait)
	h.OnAcquire(&a.ev)
	h.OnContended(&a.ev)
	h.OnAcquired(&a.ev)
	h.OnRelease(&a.ev)
}

// TestHookFireZeroAlloc pins the adapter's zero-alloc contract through a
// real Framework attachment: once a task's hook frame exists, firing
// any of the seven hook kinds at JIT tier allocates nothing — neither
// directly nor through the lock's own fast path.
func TestHookFireZeroAlloc(t *testing.T) {
	f := newFramework()
	l := locks.NewShflLock("zero-alloc")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	allKindsPolicy(t, f, "all")
	att, err := f.Attach("zero-alloc", "all")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()
	patch, err := f.SetTier("zero-alloc", TierForceJIT)
	if err != nil {
		t.Fatal(err)
	}
	patch.Wait()

	h, held := l.HookSlot().Get()
	defer held.Release()
	if h.CmpNode == nil || h.SkipShuffle == nil || h.ScheduleWaiter == nil ||
		h.OnAcquire == nil || h.OnContended == nil || h.OnAcquired == nil || h.OnRelease == nil {
		t.Fatalf("attachment installed an incomplete hook table: %+v", h)
	}
	tk, other := task.New(f.Topology()), task.New(f.Topology())
	args := newHookArgs(l.ID(), tk, other)
	op := func() {
		l.Lock(tk)
		l.Unlock(tk)
	}
	args.fireAll(h) // warm-up: the task's first fire allocates its frame
	op()
	if raceEnabled {
		t.Log("race build: exact allocation counts not checked")
	} else {
		if avg := testing.AllocsPerRun(200, func() { args.fireAll(h) }); avg != 0 {
			t.Errorf("hook fires allocate %.2f per round of seven kinds", avg)
		}
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Errorf("Lock/Unlock with the policy attached allocates %.2f/op", avg)
		}
	}
	if n := att.Faults(); n != 0 {
		t.Fatalf("policy faulted %d times: %v", n, att.Err())
	}
}

// TestHookFrameZeroesStaleWords fires the largest layout (cmp_node)
// and then smaller ones on the same task, so the later fires reuse a
// frame whose words still hold the earlier context. Their conditional
// fields — curr_preempted, reader — are left unwritten by the fill code
// and must read 0, not the cmp_node words that occupied those slots.
func TestHookFrameZeroesStaleWords(t *testing.T) {
	for _, mode := range []TierMode{TierForceVM, TierForceJIT} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFramework()
			pol, seen := allKindsPolicy(t, f, "all")
			a := &adapter{policyName: "all"}
			h := a.hooks(pol, mode)

			tk, other := task.New(f.Topology()), task.New(f.Topology())
			// Nonzero words in every cmp_node slot the smaller layouts'
			// conditional fields overlap: shuffler_weight (schedule_waiter
			// curr_preempted) and shuffler_cs_avg (profiling reader).
			tk.SetWeight(7)
			tk.EnterCS(1)
			tk.ExitCS(1001)
			args := newHookArgs(3, tk, other)

			h.CmpNode(&args.shuffle)
			h.ScheduleWaiter(&args.wait)
			h.CmpNode(&args.shuffle)
			h.OnAcquire(&args.ev)
			h.CmpNode(&args.shuffle)
			h.OnAcquired(&args.ev)

			if got := seenAt(seen, seenSched); got != 0 {
				t.Errorf("schedule_waiter saw curr_preempted = %d, want 0", got)
			}
			if got := seenAt(seen, seenAcquire); got != 0 {
				t.Errorf("lock_acquire saw reader = %d, want 0", got)
			}
			if got := seenAt(seen, seenAcquired); got != 0 {
				t.Errorf("lock_acquired saw reader = %d, want 0", got)
			}

			// The conditional fields still read 1 when set.
			other.SetPreempted(false)
			tk.SetPreempted(true)
			args.ev.Reader = true
			h.ScheduleWaiter(&args.wait)
			h.OnAcquired(&args.ev)
			if got := seenAt(seen, seenSched); got != 1 {
				t.Errorf("schedule_waiter saw curr_preempted = %d, want 1", got)
			}
			if got := seenAt(seen, seenAcquired); got != 1 {
				t.Errorf("lock_acquired saw reader = %d, want 1", got)
			}
			if n := a.Faults(); n != 0 {
				t.Fatalf("policy faulted %d times: %v", n, a.Err())
			}
		})
	}
}

// TestHookFrameRelease checks what a frame holds between fires: the task
// keeps it for the next fire, but it references neither the adapter nor
// the last context.
func TestHookFrameRelease(t *testing.T) {
	f := newFramework()
	pol, _ := allKindsPolicy(t, f, "all")
	a := &adapter{policyName: "all"}
	h := a.hooks(pol, TierAuto)
	tk := task.New(f.Topology())
	args := newHookArgs(3, tk, task.New(f.Topology()))
	args.fireAll(h)

	fr, ok := tk.TakeHookFrame().(*hookFrame)
	if !ok {
		t.Fatal("fire did not return the hook frame to its task")
	}
	if fr.env.ad != nil || fr.ctx.Layout != nil || fr.ctx.Words != nil {
		t.Errorf("idle frame still references its last fire: ad=%p ctx=%+v", fr.env.ad, fr.ctx)
	}
	if fr.env.t != tk {
		t.Errorf("frame env belongs to task %v, want %v", fr.env.t, tk)
	}
	// Every word of the frame dirty: a fire of each layout still sees
	// only the words its fill code writes.
	tk.PutHookFrame(fr)
	for k := policy.Kind(0); k.Valid(); k++ {
		for i := range fr.words {
			fr.words[i] = ^uint64(0)
		}
		layout := policy.LayoutFor(k)
		g := a.takeFrame(tk, layout)
		if g != fr {
			t.Fatalf("%s: takeFrame did not reuse the task's frame", k)
		}
		for i, w := range g.ctx.Words {
			if w != 0 {
				t.Errorf("%s: word %d (%s) = %#x, want 0", k, i, layout.Fields[i].Name, w)
			}
		}
		g.release()
	}

	// A nested fire (the slot is empty while the outer fire runs) gets
	// a frame of its own.
	outer := a.takeFrame(tk, policy.LayoutFor(policy.KindCmpNode))
	inner := a.takeFrame(tk, policy.LayoutFor(policy.KindLockAcquired))
	if inner == outer {
		t.Fatal("nested fire shared the outer fire's frame")
	}
	inner.release()
	outer.release()
	if got, _ := tk.TakeHookFrame().(*hookFrame); got != outer {
		t.Error("outer frame not back in the task's slot after a nested fire")
	}
}

// TestHookPanicLeavesFrameUsable injects a panic into one fire: it must
// count as a policy fault, and the next fire on the same task must run
// on the same, cleanly released frame and see correct context words.
func TestHookPanicLeavesFrameUsable(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	f := newFramework()
	pol, seen := allKindsPolicy(t, f, "all")
	faults := 0
	a := &adapter{policyName: "all", countFault: func() { faults++ }}
	h := a.hooks(pol, TierAuto)
	tk := task.New(f.Topology())
	args := newHookArgs(3, tk, task.New(f.Topology()))
	args.fireAll(h) // warm-up: the frame exists
	frame, _ := tk.TakeHookFrame().(*hookFrame)
	if frame == nil {
		t.Fatal("fire did not return the hook frame to its task")
	}
	tk.PutHookFrame(frame)

	faultinject.CoreHookPanic.Arm(faultinject.Config{MaxFires: 1})
	args.ev.QueueLen = 99
	h.OnContended(&args.ev)
	if a.Faults() != 1 || faults != 1 {
		t.Fatalf("faults = %d (counted %d), want 1", a.Faults(), faults)
	}
	if !errors.Is(a.Err(), ErrHookPanic) {
		t.Fatalf("Err = %v, want ErrHookPanic", a.Err())
	}
	if got := seenAt(seen, seenContended); got == 99 {
		t.Fatal("panicking fire ran the program")
	}

	got, _ := tk.TakeHookFrame().(*hookFrame)
	if got != frame || got.env.ad != nil {
		t.Fatal("panicking fire did not release the hook frame back to its task")
	}
	tk.PutHookFrame(got)
	h.OnContended(&args.ev)
	if got := seenAt(seen, seenContended); got != 99 {
		t.Errorf("lock_contended saw queue_len = %d, want 99", got)
	}
	if a.Faults() != 1 {
		t.Errorf("faults = %d after clean fires, want 1", a.Faults())
	}
}

// TestTaskChurnHeapBound is the leak regression for per-task hook state:
// with a policy attached, a stream of short-lived tasks — each taking
// the lock once, so each gets a hook frame — must leave nothing behind
// once the tasks are gone.
func TestTaskChurnHeapBound(t *testing.T) {
	const tasks = 100_000
	const maxPerTask = 32 // bytes retained per finished task

	f := newFramework()
	l := locks.NewShflLock("churn")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	allKindsPolicy(t, f, "all")
	att, err := f.Attach("churn", "all")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	churn := func(n int) {
		for i := 0; i < n; i++ {
			tk := task.New(f.Topology())
			l.Lock(tk)
			l.Unlock(tk)
		}
	}
	churn(1000) // warm-up: maps and telemetry reach their steady size
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	churn(tasks)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if per := float64(retained) / tasks; per > maxPerTask {
		t.Errorf("task churn retained %d B (%.1f B per task), want <= %d B per task",
			retained, per, maxPerTask)
	}
	if n := att.Faults(); n != 0 {
		t.Fatalf("policy faulted %d times: %v", n, att.Err())
	}
}

// TestHookFramesConcurrent runs contended traffic through a blocking
// ShflLock with every hook kind attached, one task per goroutine: each
// goroutine fires on its own task's frame and shflNode contexts, which
// the race detector checks no other goroutine touches.
func TestHookFramesConcurrent(t *testing.T) {
	const workers, ops = 4, 500
	f := newFramework()
	l := locks.NewShflLock("concurrent", locks.WithBlocking(true), locks.WithSpinBudget(8))
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	_, seen := allKindsPolicy(t, f, "all")
	att, err := f.Attach("concurrent", "all")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	var inside int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := task.New(f.Topology())
			for i := 0; i < ops; i++ {
				l.Lock(tk)
				inside++
				runtime.Gosched()
				l.Unlock(tk)
			}
		}()
	}
	wg.Wait()
	if inside != workers*ops {
		t.Fatalf("critical sections = %d, want %d", inside, workers*ops)
	}
	if n := att.Faults(); n != 0 {
		t.Fatalf("policy faulted %d times: %v", n, att.Err())
	}
	if seenAt(seen, seenRelease) == 0 {
		t.Error("lock_release program never recorded a hold time")
	}
	rounds, moves, skips := l.ShuffleStats()
	t.Logf("shuffle rounds %d, moves %d, skips %d", rounds, moves, skips)
}
