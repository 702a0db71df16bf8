package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tinyPrograms keep every workload's sweep to a few seconds in tests: two
// small suite programs (the fault fixture still gives check-shadow its
// fault ops).
var tinyPrograms = []string{"spice", "mdljsp2"}

func tinyRun(t *testing.T, workload string, seed int64, traced bool, corrupt *corruption) *result {
	t.Helper()
	res, err := run(context.Background(), runConfig{
		workload: workload,
		seed:     seed,
		seconds:  0.2,
		traced:   traced,
		outDir:   t.TempDir(),
		programs: tinyPrograms,
		corrupt:  corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func checkNames(t *testing.T, workload string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloads runs every workload at tiny scale: untraced under two
// seeds and traced once. Each run must pass its checks and report every
// metric with its unit, and the deterministic metrics must not depend on
// the seed.
func TestWorkloads(t *testing.T) {
	deterministic := []string{"addr_removed_pct", "insts_removed_pct", "code_gain_pct", "image_kb_mean", "verdicts_correct_pct"}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 1, false, nil)
			b := tinyRun(t, name, 2, false, nil)
			for _, res := range []*result{a, b} {
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.failures)
				}
				checkNames(t, name, res, endToEndMetrics)
				for _, d := range endToEndMetrics {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
					}
				}
			}
			for _, m := range deterministic {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s: seed 1 gives %v, seed 2 gives %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			tr := tinyRun(t, name, 1, true, nil)
			if !tr.Correct {
				t.Fatalf("traced run failed: %v", tr.failures)
			}
			checkNames(t, name, tr, perLayerMetrics)
		})
	}
}

// TestCorruptedOutputFails damages one op's output in every workload and
// requires the run to count it as failed.
func TestCorruptedOutputFails(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, 3, false, &corruption{op: 1})
			if res.Correct || res.Failed < 1 {
				t.Fatalf("correct=%v failed=%d, want a failed op: %v", res.Correct, res.Failed, res.failures)
			}
			if v := res.Metrics["verdicts_correct_pct"].Value; v >= 100 {
				t.Errorf("verdicts_correct_pct = %v with a failed op", v)
			}
		})
	}
}

// TestLostFaultInputFails pins a fault input in which the pass fault
// finds no kept address load (spice keeps none under OM-full+sched) and
// requires check-shadow to count it as failed rather than drop it.
func TestLostFaultInputFails(t *testing.T) {
	saved := faultPrograms
	faultPrograms = []string{"spice"}
	defer func() { faultPrograms = saved }()
	res := tinyRun(t, "check-shadow", 1, false, nil)
	if res.Correct || res.Failed < 1 {
		t.Fatalf("correct=%v failed=%d, want the lost fault input failed", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.failures, "\n"), "spice: the pass fault found no kept address load") {
		t.Errorf("failures do not name the lost input: %v", res.failures)
	}
}

// TestResultLine checks the printed form: the last line is the result
// object with exactly the four keys.
func TestResultLine(t *testing.T) {
	res := &result{workload: "w", Correct: true, Attempted: 3, Metrics: map[string]metric{}}
	for _, d := range endToEndMetrics {
		res.Metrics[d.name] = metric{1.5, d.unit}
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("key %s missing", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("%d keys, want 4", len(got))
	}
}

// TestSelfTime checks that a span's self time excludes its children,
// counting overlapping children once, and that a call made outside every
// op is counted per call only.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(name string, start, end int64, kids ...*obs.SpanDoc) *obs.SpanDoc {
		return &obs.SpanDoc{Name: name, Start: t0.Add(time.Duration(start)), Duration: time.Duration(end - start), Children: kids}
	}
	op := at(opSpan, 0, 100, at("a", 10, 50, at("c", 20, 30)), at("b", 40, 70))
	op.Attrs = map[string]string{"op": "0", "tag": "x"}
	tr := newTracer()
	tr.docs = []*obs.TraceDoc{{Root: op}, {Root: at("link.Link", 200, 260)}}
	lt := tr.aggregate()
	want := map[string]time.Duration{opSpan: 40, "a": 30, "b": 30, "c": 10}
	for name, d := range want {
		if got := lt.self["x"][name]; got != d {
			t.Errorf("self(%s) = %v, want %v", name, got, d)
		}
	}
	if lt.ops[""] != 1 || lt.ops["x"] != 1 || lt.calls["link.Link"] != 1 || lt.callSelf["link.Link"] != 60 {
		t.Errorf("ops %v, link.Link calls %d self %v", lt.ops, lt.calls["link.Link"], lt.callSelf["link.Link"])
	}
	if _, ok := lt.self[""]["link.Link"]; ok {
		t.Error("a span outside every op was counted per op")
	}
}
