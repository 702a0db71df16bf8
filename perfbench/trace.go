package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps one obs span tree per timed op, and one per call the
// benchmark makes outside the ops, in memory, and writes them once when
// the run ends. An op's root span is named opSpan and carries the op id
// and its tag (variant, job class or verdict) as attributes; the
// benchmark's wrappers around public calls are its children, and spans the
// program records through its own public options (om.WithSpan, an omd job
// trace) nest below them. A nil *tracer hands out nil traces, and obs spans
// are no-ops on nil, so the untraced runs that give the end-to-end metrics
// execute the same code with every span free.
type tracer struct {
	mu   sync.Mutex
	docs []*obs.TraceDoc
}

const (
	// opSpan names the root span of one timed op.
	opSpan = "op"
	// allocAttr is the span attribute holding the heap bytes allocated
	// during the span, recorded only where allocation is a per-layer metric.
	allocAttr = "alloc_bytes"
)

func newTracer() *tracer { return &tracer{} }

// startOp opens the span tree of op id, tagged tag.
func (t *tracer) startOp(id int, tag string) *obs.Trace {
	if t == nil {
		return nil
	}
	tr := obs.NewTrace(strconv.Itoa(id), opSpan, time.Time{}, nil)
	tr.Root().SetAttr("op", strconv.Itoa(id))
	tr.Root().SetAttr("tag", tag)
	return tr
}

// startCall opens the span tree of one call named name made outside the
// timed ops.
func (t *tracer) startCall(name string) *obs.Trace {
	if t == nil {
		return nil
	}
	return obs.NewTrace("", name, time.Time{}, nil)
}

// keep ends tr's root and stores its span tree, with trees recorded
// elsewhere (an omd job's trace) appended under the root.
func (t *tracer) keep(tr *obs.Trace, more ...*obs.SpanDoc) {
	if t == nil || tr == nil {
		return
	}
	tr.Root().End()
	doc := tr.Doc()
	for _, d := range more {
		if d != nil {
			doc.Root.Children = append(doc.Root.Children, d)
		}
	}
	t.mu.Lock()
	t.docs = append(t.docs, doc)
	t.mu.Unlock()
}

// call runs fn inside a child of sp named name.
func call(sp *obs.Span, name string, fn func()) {
	c := sp.Child(name)
	fn()
	c.End()
}

// callAlloc is call that also records the bytes allocated during fn, and
// hands fn the call's span, so an option such as om.WithSpan can nest the
// program's own spans under it. The counter is process-wide, so it is used
// only where no other goroutine of the benchmark allocates at the same time.
func callAlloc(sp *obs.Span, name string, fn func(*obs.Span)) {
	if sp == nil {
		fn(nil)
		return
	}
	before := heapAllocs()
	c := sp.Child(name)
	fn(c)
	c.End()
	c.SetAttr(allocAttr, strconv.FormatUint(heapAllocs()-before, 10))
}

// layerTimes holds, per span name, the summed self time and allocation of
// the spans inside timed ops, split by the tag of their op.
type layerTimes struct {
	ops   map[string]int // op roots per tag ("" totals every tag)
	self  map[string]map[string]time.Duration
	alloc map[string]uint64
	// callSelf and calls cover every span, inside an op or not.
	callSelf map[string]time.Duration
	calls    map[string]int
}

// aggregate derives every kept span's self time: its duration minus the
// part of that interval its children cover.
func (t *tracer) aggregate() *layerTimes {
	lt := &layerTimes{
		ops:      map[string]int{},
		self:     map[string]map[string]time.Duration{},
		alloc:    map[string]uint64{},
		callSelf: map[string]time.Duration{},
		calls:    map[string]int{},
	}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, doc := range t.docs {
		inOp := doc.Root.Name == opSpan
		tags := []string{""}
		if tag := doc.Root.Attrs["tag"]; tag != "" {
			tags = append(tags, tag)
		}
		if inOp {
			for _, tag := range tags {
				lt.ops[tag]++
			}
		}
		doc.Root.Walk(func(s *obs.SpanDoc) {
			self := s.Duration - covered(s)
			lt.callSelf[s.Name] += self
			lt.calls[s.Name]++
			if !inOp {
				return
			}
			for _, tag := range tags {
				m := lt.self[tag]
				if m == nil {
					m = map[string]time.Duration{}
					lt.self[tag] = m
				}
				m[s.Name] += self
			}
			if a, err := strconv.ParseUint(s.Attrs[allocAttr], 10, 64); err == nil {
				lt.alloc[s.Name] += a
			}
		})
	}
	return lt
}

// covered returns how much of s's interval its children cover, counting
// overlapping children once.
func covered(s *obs.SpanDoc) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range s.Children {
		a := max(c.Start.Sub(s.Start), 0)
		b := min(c.Start.Sub(s.Start)+c.Duration, s.Duration)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// perOp returns the mean self time, in ms, of spans named name over the
// ops tagged tag ("" for every op).
func (lt *layerTimes) perOp(tag string, names ...string) float64 {
	n := lt.ops[tag]
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for _, name := range names {
		sum += lt.self[tag][name]
	}
	return ms(sum) / float64(n)
}

// perCall returns the mean self time, in ms, of one call of name.
func (lt *layerTimes) perCall(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return ms(lt.callSelf[name]) / float64(lt.calls[name])
}

// allocPerOp returns the mean MB allocated inside spans named name per op.
func (lt *layerTimes) allocPerOp(name string) float64 {
	if lt.ops[""] == 0 {
		return 0
	}
	return float64(lt.alloc[name]) / 1e6 / float64(lt.ops[""])
}

// write dumps the span trees and the run's environment as one JSON
// document.
func (t *tracer) write(path string, env map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Env    map[string]any  `json:"env"`
		Traces []*obs.TraceDoc `json:"traces"`
	}{env, t.docs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs returns the bytes the process has allocated on the heap so far.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
