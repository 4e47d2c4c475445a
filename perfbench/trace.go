package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"beliefdb/internal/store"
	"beliefdb/internal/wal"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one request share req; parent indexes the causing span in the
// same log (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Log    int    `json:"log"`
}

// A tracer owns the span logs of one traced pass: one per recording
// goroutine, plus a shared one for calls made on whichever goroutine the
// program picks (the WAL sink runs on the group-commit leader).
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanLog records spans in memory. Its methods are safe on a nil log, which
// is how untraced passes skip recording.
type spanLog struct {
	t0    time.Time
	id    int
	mu    sync.Mutex
	spans []span
}

// log returns a new span log; nil on a nil tracer.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{t0: t.t0, id: len(t.logs)}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, req int64, parent int) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: now, Log: l.id})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = now
	return time.Duration(now - l.spans[i].Start)
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval covered by its children. Children are the
// spans naming it as parent in the same log, plus any span of the shared
// log whose name is in overlapping and whose interval meets it — calls the
// program made on another goroutine on this span's behalf. spans must hold
// each log's spans contiguously and in order, as tracer.all returns them.
func selfTimes(spans []span, shared int, overlapping map[string]bool) []time.Duration {
	first := map[int]int{} // index in spans of each log's first span
	var side [][2]int64
	for i, s := range spans {
		if _, ok := first[s.Log]; !ok {
			first[s.Log] = i
		}
		if s.Log == shared && overlapping[s.Name] {
			side = append(side, [2]int64{s.Start, s.End})
		}
	}
	cover := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := first[s.Log] + s.Parent
			cover[p] = append(cover[p], [2]int64{s.Start, s.End})
		}
	}
	slices.SortFunc(side, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.Log != shared {
			for _, iv := range side {
				if iv[0] >= s.End {
					break
				}
				if iv[1] > s.Start {
					cover[i] = append(cover[i], iv)
				}
			}
		}
		out[i] = s.dur() - time.Duration(covered(s.Start, s.End, cover[i]))
	}
	return out
}

// byName groups per-span values by span name.
func byName(spans []span, ds []time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], ds[i])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// walProbe times the WAL from outside: a timing sink installed around
// every WAL the store opens records each write and fsync into a span log
// and counts the bytes written, while the probe is on. It is nil, and
// installs nothing, on an untraced pass.
type walProbe struct {
	l     *spanLog
	bytes atomic.Int64
	on    atomic.Bool
}

func newWALProbe(tr *tracer) *walProbe {
	if tr == nil {
		return nil
	}
	return &walProbe{l: tr.log()}
}

// install wraps every WAL opened until the returned function runs.
func (p *walProbe) install() func() {
	if p == nil {
		return func() {}
	}
	store.SetWALSinkWrapper(func(s wal.Sink) wal.Sink { return &timedSink{w: s, p: p} })
	return func() { store.SetWALSinkWrapper(nil) }
}

// record turns recording on or off (set-up writes are not measured).
func (p *walProbe) record(on bool) {
	if p != nil {
		p.on.Store(on)
	}
}

// report fills the wal.* metrics for stmts statements.
func (p *walProbe) report(o *outcome, spans []span, stmts int) {
	var writes, syncs []time.Duration
	for _, s := range spans {
		if s.Log != p.l.id {
			continue
		}
		switch s.Name {
		case "wal.Write":
			writes = append(writes, s.dur())
		case "wal.Sync":
			syncs = append(syncs, s.dur())
		}
	}
	o.layer["wal.write_us"] = medianUS(writes)
	o.layer["wal.sync_us"] = medianUS(syncs)
	if stmts > 0 {
		o.layer["wal.syncs_per_stmt"] = float64(len(syncs)) / float64(stmts)
		o.layer["wal.bytes_per_stmt"] = float64(p.bytes.Load()) / float64(stmts)
	}
}

// timedSink is the probe's wal.Sink wrapper. Reset and Close pass through
// for checkpoints and shutdown.
type timedSink struct {
	w wal.Sink
	p *walProbe
}

func (s *timedSink) Write(p []byte) (int, error) {
	if !s.p.on.Load() {
		return s.w.Write(p)
	}
	i := s.p.l.begin("wal.Write", 0, -1)
	n, err := s.w.Write(p)
	s.p.l.end(i)
	s.p.bytes.Add(int64(n))
	return n, err
}

func (s *timedSink) Sync() error {
	if !s.p.on.Load() {
		return s.w.Sync()
	}
	i := s.p.l.begin("wal.Sync", 0, -1)
	err := s.w.Sync()
	s.p.l.end(i)
	return err
}

func (s *timedSink) Reset() error {
	if r, ok := s.w.(interface{ Reset() error }); ok {
		return r.Reset()
	}
	return fmt.Errorf("perfbench: sink %T cannot reset", s.w)
}

func (s *timedSink) Close() error {
	if c, ok := s.w.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// walOverlap names the probe's spans, which selfTimes subtracts from the
// store calls they overlap.
var walOverlap = map[string]bool{"wal.Write": true, "wal.Sync": true}
