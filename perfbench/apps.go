package main

import (
	"sync/atomic"
	"time"

	"concord/internal/core"
	"concord/internal/locks"
	"concord/internal/task"
	"concord/internal/topology"
)

// timedSetTier patches lock name to tier mode and times SetTier →
// Patch.Wait: livepatch landing under traffic.
func timedSetTier(w *worker, fw *core.Framework, name string, mode core.TierMode) {
	t0 := time.Now()
	s := w.cur.begin(spSetTier, -1)
	p, err := fw.SetTier(name, mode)
	w.cur.end(s)
	if err != nil {
		w.patchErrors++
		w.failed++
		return
	}
	s = w.cur.begin(spPatchWait, -1)
	p.Wait()
	w.cur.end(s)
	w.patch.add(int64(time.Since(t0)))
	w.patches++
}

// --- ht_full_stack: the F2c global-lock hash table ---

const (
	htKeys    = 4096
	htBuckets = 1024
)

type kv struct{ k, v uint64 }

type htApp struct {
	lock    locks.Lock
	buckets [htBuckets][]kv
	models  []*htModel // by worker index; outlive phases like the table
}

// htModel is one worker's private view of the keys it owns
// (k ≡ worker mod workers): every Get and Delete is checked against it.
type htModel struct {
	val     []uint64
	present []bool
}

func newHTApp(st *stack) app {
	return newHTTable(st.locks[0], workers())
}

func newHTTable(l locks.Lock, nworkers int) *htApp {
	a := &htApp{lock: l, models: make([]*htModel, nworkers)}
	for i := range a.buckets {
		a.buckets[i] = make([]kv, 0, 16)
	}
	for k := uint64(0); k < htKeys; k++ {
		b := a.bucket(k)
		*b = append(*b, kv{k, initialValue(k)})
	}
	return a
}

func initialValue(k uint64) uint64 { return k*0x9e3779b97f4a7c15 | 1 }

func (a *htApp) bucket(k uint64) *[]kv {
	return &a.buckets[(k*0x9e3779b97f4a7c15>>32)%htBuckets]
}

// init hands worker w its model, building it from the freshly filled
// table on first use.
func (a *htApp) init(w *worker) {
	if a.models[w.id] == nil {
		n := len(a.models)
		m := &htModel{val: make([]uint64, htKeys/n+1), present: make([]bool, htKeys/n+1)}
		for i := range m.val {
			if k := uint64(w.id + i*n); k < htKeys {
				m.val[i], m.present[i] = initialValue(k), true
			}
		}
		a.models[w.id] = m
	}
	w.state = a.models[w.id]
}

func (a *htApp) spansPerOp() int { return 4 }

func (a *htApp) op(w *worker) {
	if w.t == nil {
		w.t = task.New(topo)
	}
	m := w.state.(*htModel)
	n := len(a.models)
	i := w.rng.next() % uint64((htKeys-w.id+n-1)/n)
	k := uint64(w.id) + i*uint64(n)
	r := w.rng.next() % 100
	write := r >= 80
	sampled := !w.untimed && w.n%latencyEvery == 0
	timed := sampled || (write && !w.untimed)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	tr := w.cur
	root := tr.begin(spOp, -1)
	switch {
	case r < 80:
		v, ok := a.get(w, root, k)
		if w.corrupt() {
			v ^= 1
		}
		if ok != m.present[i] || (ok && v != m.val[i]) {
			w.failed++
		}
	case r < 90:
		v := w.rng.next() | 1
		a.put(w, root, k, v)
		m.val[i], m.present[i] = v, true
	default:
		existed := a.del(w, root, k)
		if existed != m.present[i] {
			w.failed++
		}
		m.present[i] = false
	}
	tr.end(root)
	if timed {
		d := int64(time.Since(t0))
		if sampled {
			w.lat.add(d)
		}
		if write {
			w.wlat.add(d)
		}
	}
	w.ops++
}

func (a *htApp) get(w *worker, root int32, k uint64) (uint64, bool) {
	tr, t := w.cur, w.t
	s := tr.begin(spLock, root)
	a.lock.Lock(t)
	tr.end(s)
	s = tr.begin(spSection, root)
	var v uint64
	found := false
	for _, e := range *a.bucket(k) {
		if e.k == k {
			v, found = e.v, true
			break
		}
	}
	tr.end(s)
	s = tr.begin(spUnlock, root)
	a.lock.Unlock(t)
	tr.end(s)
	return v, found
}

func (a *htApp) put(w *worker, root int32, k, v uint64) {
	tr, t := w.cur, w.t
	s := tr.begin(spLock, root)
	a.lock.Lock(t)
	tr.end(s)
	s = tr.begin(spSection, root)
	b := a.bucket(k)
	done := false
	for i := range *b {
		if (*b)[i].k == k {
			(*b)[i].v, done = v, true
			break
		}
	}
	if !done {
		*b = append(*b, kv{k, v})
	}
	tr.end(s)
	s = tr.begin(spUnlock, root)
	a.lock.Unlock(t)
	tr.end(s)
}

func (a *htApp) del(w *worker, root int32, k uint64) bool {
	tr, t := w.cur, w.t
	s := tr.begin(spLock, root)
	a.lock.Lock(t)
	tr.end(s)
	s = tr.begin(spSection, root)
	b := a.bucket(k)
	found := false
	for i := range *b {
		if (*b)[i].k == k {
			(*b)[i] = (*b)[len(*b)-1]
			*b = (*b)[:len(*b)-1]
			found = true
			break
		}
	}
	tr.end(s)
	s = tr.begin(spUnlock, root)
	a.lock.Unlock(t)
	tr.end(s)
	return found
}

func (a *htApp) control(*worker) {}

func (a *htApp) check() int64 { return 0 }

// --- read_mostly: page_fault2-shaped OCC reads on one RWSem ---

const (
	rmSlots    = 64
	rmWriteOne = 64 // one op in this many is an exclusive writer
)

type rmApp struct {
	lock  *locks.RWSem
	slots [rmSlots]atomic.Uint64
}

// rmRead is one worker's hoisted read section and its last result.
type rmRead struct {
	fn    func()
	equal bool
	sum   uint64
}

func newRMApp(st *stack) app {
	return &rmApp{lock: st.locks[0].(*locks.RWSem)}
}

func (a *rmApp) spansPerOp() int { return 4 }

// init gives worker w its hoisted read section.
func (a *rmApp) init(w *worker) {
	r := &rmRead{}
	r.fn = func() {
		first := a.slots[0].Load()
		sum, equal := first, true
		for i := 1; i < rmSlots; i++ {
			v := a.slots[i].Load()
			sum += v
			equal = equal && v == first
		}
		r.sum, r.equal = sum, equal
	}
	w.state = r
}

func (a *rmApp) op(w *worker) {
	if w.t == nil {
		w.t = task.New(topo)
	}
	write := w.rng.next()%rmWriteOne == 0
	sampled := w.n%latencyEvery == 0
	var t0 time.Time
	if sampled || write {
		t0 = time.Now()
	}
	tr := w.cur
	root := tr.begin(spOp, -1)
	if write {
		s := tr.begin(spLock, root)
		a.lock.Lock(w.t)
		tr.end(s)
		s = tr.begin(spSection, root)
		first := a.slots[0].Load()
		for i := range a.slots {
			if a.slots[i].Load() != first {
				w.failed++
			}
			a.slots[i].Add(1)
		}
		tr.end(s)
		s = tr.begin(spUnlock, root)
		a.lock.Unlock(w.t)
		tr.end(s)
	} else {
		r := w.state.(*rmRead)
		s := tr.begin(spOptRead, root)
		a.lock.OptRead(w.t, r.fn)
		tr.end(s)
		if !r.equal || w.corrupt() {
			w.failed++
		}
	}
	tr.end(root)
	if sampled || write {
		d := int64(time.Since(t0))
		if sampled {
			w.lat.add(d)
		}
		if write {
			w.wlat.add(d)
		}
	}
	w.ops++
}

func (a *rmApp) control(*worker) {}

func (a *rmApp) check() int64 { return 0 }

// --- session_churn: world-server sessions over per-room locks ---

const (
	sessionRooms      = 256
	sessionSections   = 8  // two-room sections per session
	sessionPatchEvery = 20 // worker-0 sessions between room tier flips
)

type room struct {
	lock  locks.Lock
	count int64 // guarded by lock
	_     [48]byte
}

type sessionApp struct {
	fw    *core.Framework
	rooms []room
	vm    []bool // worker 0 only: rooms currently forced to the VM tier

	sections atomic.Int64
}

func newSessionApp(st *stack) app {
	a := &sessionApp{fw: st.fw, rooms: make([]room, len(st.locks)), vm: make([]bool, len(st.locks))}
	for i, l := range st.locks {
		a.rooms[i].lock = l
	}
	return a
}

func (a *sessionApp) init(*worker) {}

func (a *sessionApp) spansPerOp() int { return 2 + 5*sessionSections }

// op is one session: a fresh task takes two rooms in ascending order
// sessionSections times, checking its held-lock view each time, then
// ends.
func (a *sessionApp) op(w *worker) {
	tr := w.cur
	t0 := time.Now()
	root := tr.begin(spOp, -1)
	s := tr.begin(spTaskNew, root)
	t := task.New(topo)
	tr.end(s)
	n := uint64(len(a.rooms))
	for i := 0; i < sessionSections; i++ {
		x, y := w.rng.next()%n, w.rng.next()%(n-1)
		if y >= x {
			y++
		}
		if y < x {
			x, y = y, x
		}
		ra, rb := &a.rooms[x], &a.rooms[y]
		ws := time.Now()
		s = tr.begin(spLock, root)
		ra.lock.Lock(t)
		tr.end(s)
		s = tr.begin(spLock, root)
		rb.lock.Lock(t)
		tr.end(s)
		s = tr.begin(spSection, root)
		w.holdCheck(t, ra.lock.ID(), rb.lock.ID())
		ra.count++
		rb.count++
		if w.corrupt() {
			rb.count++
		}
		tr.end(s)
		s = tr.begin(spUnlock, root)
		rb.lock.Unlock(t)
		tr.end(s)
		s = tr.begin(spUnlock, root)
		ra.lock.Unlock(t)
		tr.end(s)
		w.wlat.add(int64(time.Since(ws)))
	}
	a.sections.Add(sessionSections)
	tr.end(root)
	w.lat.add(int64(time.Since(t0)))
	w.ops++
}

func (a *sessionApp) control(w *worker) {
	if w.n%sessionPatchEvery != 0 {
		return
	}
	i := w.rng.next() % uint64(len(a.rooms))
	mode := core.TierForceVM
	if a.vm[i] {
		mode = core.TierAuto
	}
	a.vm[i] = !a.vm[i]
	timedSetTier(w, a.fw, a.rooms[i].lock.Name(), mode)
}

// check verifies mutual exclusion from the rooms' counters: every
// section bumped two counters under both locks, so a lost update shows
// as a shortfall (and a corrupted one as an excess). It resets the
// counters for the next phase.
func (a *sessionApp) check() int64 {
	var total int64
	for i := range a.rooms {
		total += a.rooms[i].count
		a.rooms[i].count = 0
	}
	want := 2 * a.sections.Swap(0)
	if d := total - want; d != 0 {
		return max(d, -d)
	}
	return 0
}

// topo is the virtual machine every task runs on: the paper's
// 8-socket, 80-CPU evaluation host, so NUMA policies see sockets.
var topo = topology.Paper()
