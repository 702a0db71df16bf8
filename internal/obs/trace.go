package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceVersion tags the serialized span-tree format.
const TraceVersion = "om-trace/v1"

// Trace is one request's span tree: a root span covering the whole
// lifecycle, with nested children marking each phase. The clock is
// injectable so tests observe exact, deterministic durations; production
// code passes nil and gets time.Now.
//
// Like the rest of this package, tracing is nil-tolerant end to end: every
// method on a nil *Trace or nil *Span is a no-op that allocates nothing, so
// instrumented code threads an optional span without branching and a
// disabled trace costs zero — the warm-replay allocation pins rely on it.
type Trace struct {
	id    string
	clock func() time.Time
	root  *Span
}

// NewTrace starts a trace. The root span begins at start (zero selects the
// clock's now); a nil clock selects time.Now.
func NewTrace(id, rootName string, start time.Time, clock func() time.Time) *Trace {
	if clock == nil {
		clock = time.Now
	}
	if start.IsZero() {
		start = clock()
	}
	t := &Trace{id: id, clock: clock}
	t.root = &Span{clock: clock, name: rootName, start: start}
	return t
}

// ID returns the trace id ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Doc snapshots the whole trace. Safe to call while spans are still being
// added or ended: unended spans report their duration as of the snapshot.
func (t *Trace) Doc() *TraceDoc {
	if t == nil {
		return nil
	}
	return &TraceDoc{Version: TraceVersion, TraceID: t.id, Root: t.root.Doc()}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed phase. Spans are created started and end exactly once;
// children may be added concurrently (the job lifecycle crosses the
// admission goroutine and the worker goroutine).
type Span struct {
	clock func() time.Time
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Child starts a new child span now. A nil receiver returns nil without
// allocating, which is what makes a disabled trace free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, s.clock())
}

// ChildAt starts a new child span at an explicit time (backdating a phase
// that began before the span tree existed, e.g. request decode before
// admission assigned the trace).
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{clock: s.clock, name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// FindChild returns the latest direct child named name, so a caller can
// annotate a span that code it called opened (nil when absent or for a nil
// receiver).
func (s *Span) FindChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.children) - 1; i >= 0; i-- {
		if s.children[i].name == name {
			return s.children[i]
		}
	}
	return nil
}

// End closes the span now. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.clock())
}

// EndAt closes the span at an explicit time. Idempotent.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Start returns the span's start time (zero for nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end-start for an ended span, and the duration as of now
// for a live one (0 for nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		end = s.clock()
	}
	return end.Sub(s.start)
}

// Doc snapshots the span and its subtree (nil for a nil span).
func (s *Span) Doc() *SpanDoc {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	end := s.end
	attrs := s.attrs
	children := s.children
	s.mu.Unlock()
	if end.IsZero() {
		end = s.clock()
	}
	d := &SpanDoc{Name: s.name, Start: s.start, Duration: end.Sub(s.start)}
	if len(attrs) > 0 {
		d.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range children {
		d.Children = append(d.Children, c.Doc())
	}
	return d
}

// TraceDoc is the serializable form of a completed (or snapshotted) trace.
type TraceDoc struct {
	Version string   `json:"version"`
	TraceID string   `json:"trace_id"`
	Root    *SpanDoc `json:"root"`
}

// SpanDoc is one span in a TraceDoc.
type SpanDoc struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanDoc        `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk (nil when
// absent).
func (d *TraceDoc) Find(name string) *SpanDoc {
	if d == nil {
		return nil
	}
	return d.Root.Find(name)
}

// Find returns the first span named name in the subtree rooted here,
// including the receiver itself (nil when absent).
func (d *SpanDoc) Find(name string) *SpanDoc {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits every span of the subtree depth-first, receiver first.
func (d *SpanDoc) Walk(fn func(*SpanDoc)) {
	if d == nil {
		return
	}
	fn(d)
	for _, c := range d.Children {
		c.Walk(fn)
	}
}

// Render formats the trace as an indented tree, one span per line with its
// duration and share of the root — the form omctl trace prints and the
// slow-job log embeds.
func (d *TraceDoc) Render() string {
	if d == nil || d.Root == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", d.TraceID)
	total := d.Root.Duration
	var walk func(sp *SpanDoc, depth int)
	walk = func(sp *SpanDoc, depth int) {
		pct := 100.0
		if total > 0 {
			pct = 100 * float64(sp.Duration) / float64(total)
		}
		fmt.Fprintf(&b, "%s%-*s %12v %5.1f%%", strings.Repeat("  ", depth),
			32-2*depth, sp.Name, sp.Duration.Round(time.Microsecond), pct)
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, sp.Attrs[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return b.String()
}
