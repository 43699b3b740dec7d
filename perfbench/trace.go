package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per benchmark→layer call, named by the module called.
const (
	spOp        = iota // the benchmark's own operation (root)
	spLock             // locks: Lock (exclusive acquire, hooks included)
	spUnlock           // locks: Unlock
	spOptRead          // locks: RWSem.OptRead (OCC tier or RLock fallback)
	spSection          // the application's critical-section body
	spTaskNew          // task: task.New
	spSetTier          // core: Framework.SetTier
	spPatchWait        // livepatch: Patch.Wait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:        "bench.op",
	spLock:      "locks.Lock",
	spUnlock:    "locks.Unlock",
	spOptRead:   "locks.OptRead",
	spSection:   "app.section",
	spTaskNew:   "task.New",
	spSetTier:   "core.SetTier",
	spPatchWait: "livepatch.Wait",
}

// span is one timed call; start and end are nanoseconds since the trace
// epoch, parent indexes the same worker's buffer (-1 for a root).
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// tracer keeps one worker's spans in a preallocated buffer; spans past
// its capacity are counted and dropped, never allocated.
type tracer struct {
	epoch   time.Time
	spans   []span
	worker  int
	dropped int64
}

func newTracer(epoch time.Time, capacity, worker int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity), worker: worker}
}

// begin opens a span. A nil tracer (an untraced op) does nothing.
func (tr *tracer) begin(name uint8, parent int32) int32 {
	if tr == nil {
		return -1
	}
	if len(tr.spans) == cap(tr.spans) {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: int64(time.Since(tr.epoch))})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) end(i int32) {
	if tr == nil || i < 0 {
		return
	}
	tr.spans[i].end = int64(time.Since(tr.epoch))
}

// spanDurations returns the durations of every closed span called name
// across tracers.
func spanDurations(trs []*tracer, name uint8) *sampler {
	n := 0
	for _, tr := range trs {
		n += len(tr.spans)
	}
	s := newSampler(n + 1)
	for _, tr := range trs {
		for _, sp := range tr.spans {
			if sp.name == name && sp.end >= sp.start {
				s.add(sp.end - sp.start)
			}
		}
	}
	return &s
}

// selfTimes returns, per span name, total self time (duration minus the
// time its direct children cover) and span count.
func selfTimes(trs []*tracer) (self [numSpanNames]int64, count [numSpanNames]int64) {
	for _, tr := range trs {
		child := make([]int64, len(tr.spans))
		for _, sp := range tr.spans {
			if sp.parent >= 0 && sp.end >= sp.start {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range tr.spans {
			if sp.end < sp.start {
				continue
			}
			self[sp.name] += sp.end - sp.start - child[i]
			count[sp.name]++
		}
	}
	return self, count
}

// writeSpans dumps every span as JSON lines (name, worker, id, parent,
// start_ns, end_ns) once the run is over.
func writeSpans(dir, workload string, trs []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span dir: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, tr := range trs {
		for i, sp := range tr.spans {
			fmt.Fprintf(bw, `{"name":%q,"worker":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				spanNames[sp.name], tr.worker, i, sp.parent, sp.start, sp.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// layerShares formats each span name's share of total self time, for
// the human-readable notes.
func layerShares(trs []*tracer) string {
	self, count := selfTimes(trs)
	var total int64
	for _, v := range self {
		total += v
	}
	type row struct {
		name string
		ns   int64
		n    int64
	}
	var rows []row
	for i := range self {
		if count[i] > 0 {
			rows = append(rows, row{spanNames[i], self[i], count[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	out := "self time by layer:"
	for _, r := range rows {
		out += fmt.Sprintf(" %s %.1f%% (%d spans, %.0f ns each)", r.name,
			100*float64(r.ns)/float64(max(total, 1)), r.n, float64(r.ns)/float64(r.n))
	}
	return out
}
