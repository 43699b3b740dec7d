// Package experiments regenerates every figure of the paper's evaluation
// (§5, Figure 2) plus the ablations DESIGN.md calls out. The scaling
// panels (2a, 2b) run on the ksim discrete-event machine — an 8-socket,
// 80-CPU virtual server — because the shapes they show are hardware
// scaling effects; the overhead panel (2c) runs on the real lock
// implementations, because framework overhead is what it measures.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"concord/internal/core"
	"concord/internal/ksim"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// Point is one datum of a figure: one series at one thread count.
type Point struct {
	Experiment string
	Series     string
	Threads    int
	Value      float64 // ops/msec, or normalized throughput for F2c
}

// DefaultThreads is the x-axis of Figure 2(a) and (b).
var DefaultThreads = []int{1, 2, 4, 8, 10, 20, 30, 40, 50, 60, 70, 80}

// F2cThreads is the x-axis of Figure 2(c).
var F2cThreads = []int{1, 2, 4, 8, 10, 20, 30, 40, 50, 60, 70, 80}

// SimDuration is the virtual time simulated per point (ns).
const SimDuration = 30_000_000 // 30 virtual ms

// pageFault2Sim is the simulated page_fault2 workload: read-side faults
// with ~1.4µs of fault handling outside the lock and ~500ns inside.
var pageFault2Sim = ksim.Workload{
	Name: "page_fault2", ThinkNS: 1400, CSNS: 500, ReadFraction: 1, JitterPct: 15,
}

// lock2Sim is the simulated lock2 workload: a tight lock/unlock loop.
var lock2Sim = ksim.Workload{
	Name: "lock2", ThinkNS: 300, CSNS: 250, ReadFraction: 0, JitterPct: 10,
}

// hashtableSim is the simulated global-lock hash table workload.
var hashtableSim = ksim.Workload{
	Name: "hashtable", ThinkNS: 250, CSNS: 400, ReadFraction: 0, JitterPct: 15,
}

func simPoint(mk func(e *ksim.Engine) ksim.SimLock, w ksim.Workload, threads int) float64 {
	e := ksim.NewEngine(topology.Paper(), uint64(threads)*7919+1)
	res := ksim.RunClosedLoop(e, mk(e), e.NewProcs(threads), w, SimDuration)
	return res.OpsPerMSec()
}

// NUMACmpProgram assembles and verifies the cBPF NUMA-grouping cmp_node
// policy — the program the "Concord-ShflLock" series actually executes.
func NUMACmpProgram() *policy.Program {
	p := policy.MustAssemble("numa", policy.KindCmpNode, `
		mov   r6, r1
		ldxdw r2, [r6+curr_socket]
		ldxdw r3, [r6+shuffler_socket]
		jeq   r2, r3, group
		mov   r0, 0
		exit
	group:
		mov   r0, 1
		exit
	`, nil)
	if _, err := policy.Verify(p); err != nil {
		panic(err)
	}
	return p
}

// CBPFNumaCmp wraps the verified cBPF program as a simulator cmp_node
// decision: every simulated shuffling comparison runs the real policy,
// through the JIT closure tier when enabled (interpreter fallback).
func CBPFNumaCmp() ksim.CmpFunc {
	return cbpfCmp(NUMACmpProgram())
}

// cbpfCmp builds the simulator decision closure for a verified
// cmp_node program, dispatching through execClosure so the sim series
// exercise the same tier the -jit toggle selects. Sim results are
// virtual-time deterministic either way — the tiers are proven
// equivalent, so this only changes which executor's code path the
// sweep keeps hot.
func cbpfCmp(prog *policy.Program) ksim.CmpFunc {
	layout := policy.LayoutFor(policy.KindCmpNode)
	sSlot := layout.Slot("shuffler_socket")
	cSlot := layout.Slot("curr_socket")
	run := execClosure(prog)
	return func(shuffler, curr *ksim.Proc) bool {
		var words [32]uint64
		ctx := policy.Ctx{Layout: layout, Words: words[:len(layout.Fields)]}
		ctx.Words[sSlot] = uint64(shuffler.Socket)
		ctx.Words[cSlot] = uint64(curr.Socket)
		ret, err := run(&ctx, nil)
		return err == nil && ret != 0
	}
}

// nativeNumaCmp is the pre-compiled comparison point.
func nativeNumaCmp(s, c *ksim.Proc) bool { return s.Socket == c.Socket }

// ProfiledNumaCmpProgram is the NUMA-grouping cmp_node policy with a
// profiling side-channel: every shuffler examination bumps a per-socket
// counter in a hash map before comparing sockets. map_add is a
// read-only-path helper, so this is legal on the shuffler fast path —
// it is the map-heavy scenario the lock-free map plane exists for.
func ProfiledNumaCmpProgram(exams policy.Map) *policy.Program {
	p := policy.MustAssemble("numa-prof", policy.KindCmpNode, `
		mov   r6, r1
		ldxdw r2, [r6+curr_socket]
		stxdw [fp-8], r2
		ldmap r1, exams
		mov   r2, fp
		add   r2, -8
		mov   r3, 1
		call  map_add
		ldxdw r2, [r6+curr_socket]
		ldxdw r3, [r6+shuffler_socket]
		jeq   r2, r3, group
		mov   r0, 0
		exit
	group:
		mov   r0, 1
		exit
	`, map[string]policy.Map{"exams": exams})
	if _, err := policy.Verify(p); err != nil {
		panic(err)
	}
	return p
}

// CBPFProfiledNumaCmp wraps ProfiledNumaCmpProgram as a simulator
// cmp_node decision, counting examinations per socket in m as it goes,
// through the JIT closure tier when enabled (interpreter fallback).
func CBPFProfiledNumaCmp(m policy.Map) ksim.CmpFunc {
	return cbpfCmp(ProfiledNumaCmpProgram(m))
}

// Figure2a regenerates Figure 2(a): page_fault2 over Stock (neutral
// rwsem), BRAVO, and Concord-BRAVO (BRAVO with hook dispatch on the
// read path).
func Figure2a(threads []int) []Point {
	c := ksim.DefaultCosts()
	series := []struct {
		name string
		mk   func(e *ksim.Engine) ksim.SimLock
	}{
		{"Stock", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimRWSem(e, c) }},
		{"BRAVO", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, 0) }},
		{"Concord-BRAVO", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, c.DispatchNS) }},
	}
	var out []Point
	for _, s := range series {
		for _, n := range threads {
			out = append(out, Point{"f2a", s.name, n, simPoint(s.mk, pageFault2Sim, n)})
		}
	}
	return out
}

// Figure2b regenerates Figure 2(b): lock2 over Stock (qspinlock),
// ShflLock (pre-compiled NUMA policy) and Concord-ShflLock (the same
// policy as a verified cBPF program driving the simulated shuffler,
// plus hook dispatch).
func Figure2b(threads []int) []Point {
	c := ksim.DefaultCosts()
	cbpf := CBPFNumaCmp()
	series := []struct {
		name string
		mk   func(e *ksim.Engine) ksim.SimLock
	}{
		{"Stock", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimQspin(e, c) }},
		{"ShflLock", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, nativeNumaCmp, 0) }},
		{"Concord-ShflLock", func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpf, c.DispatchNS) }},
	}
	var out []Point
	for _, s := range series {
		for _, n := range threads {
			out = append(out, Point{"f2b", s.name, n, simPoint(s.mk, lock2Sim, n)})
		}
	}
	return out
}

// Figure2cSim regenerates Figure 2(c)'s shape on the simulator:
// normalized throughput of Concord-ShflLock over ShflLock on the
// global-lock hash table (worst case: short critical sections, hook
// dispatch on every operation).
func Figure2cSim(threads []int) []Point {
	c := ksim.DefaultCosts()
	cbpf := CBPFNumaCmp()
	var out []Point
	for _, n := range threads {
		base := simPoint(func(e *ksim.Engine) ksim.SimLock {
			return ksim.NewSimShfl(e, c, nativeNumaCmp, 0)
		}, hashtableSim, n)
		concord := simPoint(func(e *ksim.Engine) ksim.SimLock {
			return ksim.NewSimShfl(e, c, cbpf, c.DispatchNS)
		}, hashtableSim, n)
		norm := 0.0
		if base > 0 {
			norm = concord / base
		}
		out = append(out, Point{"f2c", "Concord-ShflLock/ShflLock", n, norm})
	}
	return out
}

// f2cRealPairs is how many interleaved baseline/Concord run pairs
// Figure2cReal measures per thread count. A single short run is at the
// mercy of the host scheduler — one descheduled worker moves a pair's
// ratio by an order of magnitude on a 2-CPU host — so the reported
// ratio is the median over pairs, each pair run back to back and the
// two sides alternating which runs first.
const f2cRealPairs = 9

// Figure2cReal measures Figure 2(c) on the real lock implementations:
// the hash-table workload on a ShflLock with the pre-compiled NUMA
// policy versus the same lock with the verified cBPF policy attached
// through the full framework (livepatch, hook dispatch, VM execution).
func Figure2cReal(threads []int, opsPerWorker int) []Point {
	topo := topology.Paper()
	var out []Point
	for _, n := range threads {
		// Pre-compiled baseline.
		base := locks.NewShflLock("ht-base")
		base.HookSlot().Replace("numa", locks.NUMAHooks())

		// Concord: cBPF policy through the framework.
		fw := core.New(topo)
		cl := locks.NewShflLock("ht-concord")
		if err := fw.RegisterLock(cl); err != nil {
			panic(err)
		}
		if _, err := fw.LoadPolicy("numa-cbpf", NUMACmpProgram()); err != nil {
			panic(err)
		}
		att, err := fw.Attach("ht-concord", "numa-cbpf")
		if err != nil {
			panic(err)
		}
		att.Wait()

		cfg := workloads.HashTableConfig{Workers: n, OpsPerWorker: opsPerWorker}
		ratios := make([]float64, 0, f2cRealPairs)
		for pair := 0; pair < f2cRealPairs; pair++ {
			var rb, rc workloads.Result
			if pair%2 == 0 {
				rb = workloads.RunHashTable(base, topo, cfg)
				rc = workloads.RunHashTable(cl, topo, cfg)
			} else {
				rc = workloads.RunHashTable(cl, topo, cfg)
				rb = workloads.RunHashTable(base, topo, cfg)
			}
			if rb.OpsPerMSec() > 0 {
				ratios = append(ratios, rc.OpsPerMSec()/rb.OpsPerMSec())
			}
		}
		norm := 0.0
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			norm = ratios[len(ratios)/2]
		}
		out = append(out, Point{"f2c-real", "Concord-ShflLock/ShflLock", n, norm})
	}
	return out
}

// ShufflePolicyAblation (A3) compares shuffle policies on the simulated
// lock2 workload at a fixed thread count.
func ShufflePolicyAblation(threads int) []Point {
	c := ksim.DefaultCosts()
	policies := []struct {
		name string
		cmp  ksim.CmpFunc
	}{
		{"fifo", nil},
		{"numa", nativeNumaCmp},
		{"numa-cbpf", CBPFNumaCmp()},
		{"random", func(s, cu *ksim.Proc) bool { return (s.ID^cu.ID)&1 == 0 }},
	}
	var out []Point
	for _, p := range policies {
		v := simPoint(func(e *ksim.Engine) ksim.SimLock {
			return ksim.NewSimShfl(e, c, p.cmp, 0)
		}, lock2Sim, threads)
		out = append(out, Point{"a3", p.name, threads, v})
	}
	return out
}

// SubversionResult is the outcome of one SubversionSim run.
type SubversionResult struct {
	HogOps, MiceOps           int64
	HogWaitMean, MiceWaitMean float64 // ns
}

// SubversionSim (ablation A5, simulated) is the deterministic multicore
// rendition of the scheduler-subversion scenario (§3.1.2): hogs hold the
// lock ~50× longer than mice. With the SCL-style policy the shuffler
// moves mice ahead of queued hogs, cutting their wait; on the simulated
// machine the shuffler genuinely runs off the critical path, so the
// ordering benefit is visible in a way a single-CPU host cannot show.
func SubversionSim(hogs, mice int, scl bool) SubversionResult {
	e := ksim.NewEngine(topology.Paper(), 7)
	c := ksim.DefaultCosts()

	n := hogs + mice
	isHog := func(id int) bool { return id < hogs }
	var cmp ksim.CmpFunc
	if scl {
		cmp = func(s, cu *ksim.Proc) bool {
			// Move curr forward when it is a mouse overtaking a hog
			// shuffler — "curr's critical section is shorter".
			return isHog(s.ID) && !isHog(cu.ID)
		}
	}
	lock := ksim.NewSimShfl(e, c, cmp, 0)
	procs := e.NewProcs(n)

	var res SubversionResult
	var hogWait, miceWait int64
	end := int64(50_000_000) // 50 virtual ms
	for _, p := range procs {
		p := p
		csNS := int64(50_000)
		if !isHog(p.ID) {
			csNS = 1_000
		}
		var loop func()
		loop = func() {
			if e.Now() >= end {
				return
			}
			e.Schedule(500, func() {
				reqAt := e.Now()
				lock.Acquire(p, false, func() {
					wait := e.Now() - reqAt
					e.Schedule(csNS, func() {
						lock.Release(p, false)
						if isHog(p.ID) {
							res.HogOps++
							hogWait += wait
						} else {
							res.MiceOps++
							miceWait += wait
						}
						loop()
					})
				})
			})
		}
		loop()
	}
	e.Run(end)
	if res.HogOps > 0 {
		res.HogWaitMean = float64(hogWait) / float64(res.HogOps)
	}
	if res.MiceOps > 0 {
		res.MiceWaitMean = float64(miceWait) / float64(res.MiceOps)
	}
	return res
}

// AMPResult is the outcome of one AMPSim run.
type AMPResult struct {
	Ops          int64
	BigOps       int64
	LittleOps    int64
	LittleStarve bool // a little core completed nothing
}

// AMPSim (ablation A8) is the task-fair-locks-on-AMP scenario of §3.1.2
// on a simulated big.LITTLE machine: critical sections take ~3× longer
// on little cores, so under FIFO the slow cores' turns throttle
// everyone. The AMP policy hands the lock to fast cores first (bounded
// by the bypass budget, so little cores still progress), raising total
// throughput.
func AMPSim(big, little int, amp bool) AMPResult {
	topo := topology.BigLittle(big, little)
	e := ksim.NewEngine(topo, 11)
	c := ksim.DefaultCosts()

	var cmp ksim.CmpFunc
	if amp {
		cmp = func(s, cu *ksim.Proc) bool { return cu.Speed > s.Speed }
	}
	lock := ksim.NewSimShfl(e, c, cmp, 0)

	// One proc per core: big cores first (topology socket 0), then
	// little (socket 1).
	var procs []*ksim.Proc
	for cpu := 0; cpu < big; cpu++ {
		procs = append(procs, &ksim.Proc{ID: cpu, CPU: cpu, Socket: 0, Speed: 1.0})
	}
	base := topo.CoresPerSocket()
	for i := 0; i < little; i++ {
		cpu := base + i
		procs = append(procs, &ksim.Proc{
			ID: cpu, CPU: cpu, Socket: 1, Speed: float64(topology.SpeedLittle),
		})
	}

	var res AMPResult
	perProc := make([]int64, len(procs))
	end := int64(50_000_000)
	for i, p := range procs {
		i, p := i, p
		var loop func()
		loop = func() {
			if e.Now() >= end {
				return
			}
			e.Schedule(p.WorkNS(500), func() {
				lock.Acquire(p, false, func() {
					e.Schedule(p.WorkNS(4_000), func() {
						lock.Release(p, false)
						perProc[i]++
						loop()
					})
				})
			})
		}
		loop()
	}
	e.Run(end)
	for i, p := range procs {
		res.Ops += perProc[i]
		if p.Speed >= 1.0 {
			res.BigOps += perProc[i]
		} else {
			res.LittleOps += perProc[i]
			if perProc[i] == 0 {
				res.LittleStarve = true
			}
		}
	}
	return res
}

// WriteCSV emits points as experiment,series,threads,value rows.
func WriteCSV(w io.Writer, pts []Point) error {
	if _, err := fmt.Fprintln(w, "experiment,series,threads,value"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f\n", p.Experiment, p.Series, p.Threads, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// benchFile is the schema of one BENCH_<experiment>.json artifact.
type benchFile struct {
	Experiment string       `json:"experiment"`
	Points     []benchPoint `json:"points"`
}

type benchPoint struct {
	Series  string  `json:"series"`
	Threads int     `json:"threads"`
	Value   float64 `json:"value"` // ops/msec, or normalized throughput for f2c
}

// WriteBenchJSON writes one BENCH_<experiment>.json per experiment into
// dir (created if absent), returning the paths written. Points keep run
// order within a file, matching the CSV row order.
func WriteBenchJSON(dir string, pts []Point) ([]string, error) {
	if len(pts) > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	byExp := map[string]*benchFile{}
	var order []string
	for _, p := range pts {
		f := byExp[p.Experiment]
		if f == nil {
			f = &benchFile{Experiment: p.Experiment}
			byExp[p.Experiment] = f
			order = append(order, p.Experiment)
		}
		f.Points = append(f.Points, benchPoint{Series: p.Series, Threads: p.Threads, Value: p.Value})
	}
	var paths []string
	for _, exp := range order {
		data, err := json.MarshalIndent(byExp[exp], "", "  ")
		if err != nil {
			return paths, err
		}
		path := filepath.Join(dir, "BENCH_"+exp+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// RenderTable prints points as a threads × series table, one figure per
// block — the textual equivalent of the paper's plots.
func RenderTable(w io.Writer, pts []Point) error {
	byExp := map[string][]Point{}
	var exps []string
	for _, p := range pts {
		if _, seen := byExp[p.Experiment]; !seen {
			exps = append(exps, p.Experiment)
		}
		byExp[p.Experiment] = append(byExp[p.Experiment], p)
	}
	for _, exp := range exps {
		eps := byExp[exp]
		var series []string
		seen := map[string]bool{}
		threadSet := map[int]bool{}
		vals := map[string]map[int]float64{}
		for _, p := range eps {
			if !seen[p.Series] {
				seen[p.Series] = true
				series = append(series, p.Series)
				vals[p.Series] = map[int]float64{}
			}
			vals[p.Series][p.Threads] = p.Value
			threadSet[p.Threads] = true
		}
		threads := make([]int, 0, len(threadSet))
		for t := range threadSet {
			threads = append(threads, t)
		}
		sort.Ints(threads)

		if _, err := fmt.Fprintf(w, "== %s ==\n%-8s", exp, "threads"); err != nil {
			return err
		}
		for _, s := range series {
			fmt.Fprintf(w, " %20s", s)
		}
		fmt.Fprintln(w)
		for _, t := range threads {
			fmt.Fprintf(w, "%-8d", t)
			for _, s := range series {
				fmt.Fprintf(w, " %20.2f", vals[s][t])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}
