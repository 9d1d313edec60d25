package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zenport"
	"zenport/internal/engine"
)

// span is one traced interval. Spans of one request share Req; Parent
// links a span to the span that caused it (0 = root). Attrs carries
// the counts taken at the same boundary.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// interval records a span from start to end.
func (t *tracer) interval(id, parent int64, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end), Attrs: attrs})
}

// selfTimes sums, per span name, the count, total duration and self
// time: a span's duration minus the time its direct children cover.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) selfTimes() []selfTime {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	var names []string
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		self := d - child[s.ID]
		if self < 0 {
			self = 0 // children ran in parallel (engine workers)
		}
		st.Count++
		st.Total += float64(d) / 1e9
		st.Self += float64(self) / 1e9
	}
	sort.Strings(names)
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// write stores the spans and the self-time table as one JSON file.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	data, err := json.Marshal(struct {
		Self  []selfTime `json:"self"`
		Spans []span     `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes writes the self-time table for a reader.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-24s %8d %10.3f %10.3f\n", st.Name, st.Count, st.Total, st.Self)
	}
}

// timingProc wraps the simulated machine and counts its calls and busy
// time; processor calls are aggregated into the enclosing stage span
// rather than recorded one span each. Embedding forwards the machine's
// optional interfaces (Fingerprint, RestoreExecCount), so the engine,
// the persist layer and the run fingerprint see the same processor as
// an untraced run; ExecuteContext is defined here so that a machine
// gaining one would still be timed.
type timingProc struct {
	*zenport.Machine
	calls atomic.Uint64
	busy  atomic.Int64
}

var (
	_ zenport.Fingerprinter    = (*timingProc)(nil)
	_ engine.ExecCountRestorer = (*timingProc)(nil)
	_ engine.ContextProcessor  = (*timingProc)(nil)
)

func (p *timingProc) Execute(kernel []string, iterations int) (zenport.Counters, error) {
	return p.ExecuteContext(context.Background(), kernel, iterations)
}

// ExecuteContext forwards to the machine's ExecuteContext when it has
// one; otherwise it checks ctx first, as the engine does for machines
// without one.
func (p *timingProc) ExecuteContext(ctx context.Context, kernel []string, iterations int) (zenport.Counters, error) {
	t0 := time.Now()
	var c zenport.Counters
	var err error
	if cp, ok := any(p.Machine).(engine.ContextProcessor); ok {
		c, err = cp.ExecuteContext(ctx, kernel, iterations)
	} else if err = ctx.Err(); err == nil {
		c, err = p.Machine.Execute(kernel, iterations)
	}
	p.busy.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return c, err
}

// procSnap is a reading of the wrapper's counters (zero when untraced).
type procSnap struct {
	calls uint64
	busy  time.Duration
}

func (p *timingProc) snap() procSnap {
	if p == nil {
		return procSnap{}
	}
	return procSnap{calls: p.calls.Load(), busy: time.Duration(p.busy.Load())}
}

func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{calls: a.calls - b.calls, busy: a.busy - b.busy}
}

// wrapMachine returns the processor a workload measures on: the
// machine itself, or the timing wrapper around it when traced.
func wrapMachine(m *zenport.Machine, tr *tracer) (zenport.Processor, zenport.Fingerprinter, *timingProc) {
	if tr == nil {
		return m, m, nil
	}
	tp := &timingProc{Machine: m}
	return tp, tp, tp
}

// addProcLayer stores the wrapper's totals as zensim metrics.
func (o *outcome) addProcLayer(s procSnap) {
	o.layer["zensim.calls"] = float64(s.calls)
	o.layer["zensim.busy_s"] = s.busy.Seconds()
	if s.calls > 0 {
		o.layer["zensim.ns_per_call"] = float64(s.busy.Nanoseconds()) / float64(s.calls)
	}
}

// addEngineLayer stores an engine metrics delta as engine metrics.
func (o *outcome) addEngineLayer(m zenport.EngineMetrics) {
	o.layer["engine.submitted"] = float64(m.Submitted)
	o.layer["engine.executed"] = float64(m.Executed)
	o.layer["engine.processor_calls"] = float64(m.ProcessorCalls)
	o.layer["engine.batch_wall_s"] = m.BatchWall.Seconds()
	o.layer["engine.quarantined"] = float64(m.Quarantined)
	if m.Submitted > 0 {
		o.layer["engine.reuse_ratio"] = float64(m.CacheHits+m.Coalesced) / float64(m.Submitted)
	}
}

// subMetrics returns the engine counters accumulated between a and b.
func subMetrics(b, a zenport.EngineMetrics) zenport.EngineMetrics {
	return zenport.EngineMetrics{
		Submitted:      b.Submitted - a.Submitted,
		Executed:       b.Executed - a.Executed,
		CacheHits:      b.CacheHits - a.CacheHits,
		Coalesced:      b.Coalesced - a.Coalesced,
		ProcessorCalls: b.ProcessorCalls - a.ProcessorCalls,
		Quarantined:    b.Quarantined - a.Quarantined,
		BatchWall:      b.BatchWall - a.BatchWall,
	}
}
