package om

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// matrixPoint is one (options, profile) cell of the golden matrix.
type matrixPoint struct {
	name string
	opts []Option
	prof bool
}

func goldenMatrix() []matrixPoint {
	return []matrixPoint{
		{name: "none", opts: []Option{WithLevel(LevelNone)}},
		{name: "simple", opts: []Option{WithLevel(LevelSimple)}},
		{name: "full", opts: []Option{WithLevel(LevelFull)}},
		{name: "full+sched", opts: []Option{WithLevel(LevelFull), WithSchedule(true)}},
		{name: "ablate-gatred", opts: []Option{WithAblation(Ablation{NoGATReduction: true})}},
		{name: "ablate-call+sched", opts: []Option{WithAblation(Ablation{NoCallOpt: true}), WithSchedule(true)}},
		{name: "full+pgo", opts: []Option{WithLevel(LevelFull)}, prof: true},
		{name: "full+sched+pgo", opts: []Option{WithLevel(LevelFull), WithSchedule(true)}, prof: true},
	}
}

// TestWarmRunByteIdenticalMatrix is the tentpole invariant: for every
// (options, profile) point of the golden matrix, a warm incremental Run —
// lifted-form replay on first sight of the options, full pass-memo replay
// on second sight — produces a byte-identical image to a cold memo-less
// Run. The sweep runs twice so every point is exercised both while the memo
// is filling and after unrelated points have interleaved.
func TestWarmRunByteIdenticalMatrix(t *testing.T) {
	prof := collectProfile(t)
	memo := NewMemo(nil)
	ctx := context.Background()

	cold := make(map[string][]byte)
	for _, pt := range goldenMatrix() {
		opts := pt.opts
		if pt.prof {
			opts = append(append([]Option(nil), opts...), WithProfile(prof))
		}
		res, err := Run(ctx, freshProgram(t), opts...)
		if err != nil {
			t.Fatalf("%s: cold run: %v", pt.name, err)
		}
		cold[pt.name] = imageBytes(t, res.Image)
	}

	for sweep := 0; sweep < 2; sweep++ {
		for _, pt := range goldenMatrix() {
			opts := append([]Option{WithMemo(memo)}, pt.opts...)
			if pt.prof {
				opts = append(opts, WithProfile(prof))
			}
			res, err := Run(ctx, freshProgram(t), opts...)
			if err != nil {
				t.Fatalf("%s: warm run (sweep %d): %v", pt.name, sweep, err)
			}
			if got := imageBytes(t, res.Image); !bytes.Equal(got, cold[pt.name]) {
				t.Errorf("%s: sweep %d image differs from cold run (%d vs %d bytes)",
					pt.name, sweep, len(got), len(cold[pt.name]))
			}
			if res.Stats == nil {
				t.Fatalf("%s: warm run carried no stats", pt.name)
			}
		}
	}
	if st := memo.PassStats(); st.Hits == 0 {
		t.Error("second sweep never hit the pass memo")
	}
	if st := memo.LiftStats(); st.Hits == 0 {
		t.Error("matrix never hit the lifted-form cache")
	}
}

// TestWarmStatsMatchCold: the statistics replayed from the pass memo equal
// the cold run's, field for field.
func TestWarmStatsMatchCold(t *testing.T) {
	ctx := context.Background()
	coldRes, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithSchedule(true))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(nil)
	for i := 0; i < 2; i++ {
		res, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithSchedule(true), WithMemo(memo))
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if *res.Stats != *coldRes.Stats {
			t.Errorf("warm run %d stats diverge:\nwarm %+v\ncold %+v", i, *res.Stats, *coldRes.Stats)
		}
	}
}

// TestWarmRunSkipsDecodeLiftAndPasses proves the acceptance criterion with
// the obs counters: a warm same-options relink performs zero module
// decodes, zero procedure lifts, and zero per-procedure pass computations;
// a warm options-only relink performs zero decodes and zero lifts, and
// recomputes only the passes.
func TestWarmRunSkipsDecodeLiftAndPasses(t *testing.T) {
	ctx := context.Background()
	memo := NewMemo(nil)

	counters := func(opts ...Option) map[string]uint64 {
		reg := obs.NewRegistry()
		opts = append(opts, WithMemo(memo), WithMetrics(reg))
		if _, err := Run(ctx, freshProgram(t), opts...); err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, name := range []string{
			"om/decode/modules", "om/lift/procs", "om/lift/replayed",
			"om/passes/procs", "om/passes/replayed",
		} {
			out[name] = reg.Counter(name).Value()
		}
		return out
	}

	cold := counters(WithLevel(LevelFull))
	if cold["om/decode/modules"] == 0 || cold["om/lift/procs"] == 0 || cold["om/passes/procs"] == 0 {
		t.Fatalf("cold run did no work: %v", cold)
	}

	warmSame := counters(WithLevel(LevelFull))
	if warmSame["om/decode/modules"] != 0 || warmSame["om/lift/procs"] != 0 || warmSame["om/passes/procs"] != 0 {
		t.Errorf("warm same-options relink redid work: %v", warmSame)
	}
	if warmSame["om/passes/replayed"] != cold["om/passes/procs"] {
		t.Errorf("warm same-options relink replayed %d of %d procedures",
			warmSame["om/passes/replayed"], cold["om/passes/procs"])
	}

	warmNew := counters(WithLevel(LevelFull), WithSchedule(true))
	if warmNew["om/decode/modules"] != 0 || warmNew["om/lift/procs"] != 0 {
		t.Errorf("warm options-only relink re-decoded or re-lifted: %v", warmNew)
	}
	if warmNew["om/lift/replayed"] != cold["om/lift/procs"] {
		t.Errorf("warm options-only relink replayed %d of %d lifted procedures",
			warmNew["om/lift/replayed"], cold["om/lift/procs"])
	}
	if warmNew["om/passes/procs"] == 0 {
		t.Error("options change must recompute the passes")
	}
}

// TestMemoEvictionNeverStale: with the stores sized far below the working
// set, every lookup pattern — partial eviction, full eviction, interleaved
// programs — must fall back to recompute, never serve a stale or foreign
// snapshot. Byte-identity against memo-less runs is the oracle.
func TestMemoEvictionNeverStale(t *testing.T) {
	ctx := context.Background()
	progA := func(t *testing.T) *link.Program { return freshProgram(t) }
	progB := func(t *testing.T) *link.Program {
		return buildProgram(t, []tcc.Source{{Name: "alt", Text: `
long twist(long v) { return v * 7 - 2; }
long main() {
	long i; long acc = 0;
	for (i = 0; i < 9; i = i + 1) acc = acc + twist(i);
	return acc;
}
`}})
	}

	want := map[string][]byte{}
	for name, mk := range map[string]func(*testing.T) *link.Program{"a": progA, "b": progB} {
		for _, sched := range []bool{false, true} {
			res, err := Run(ctx, mk(t), WithLevel(LevelFull), WithSchedule(sched))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s/%v", name, sched)] = imageBytes(t, res.Image)
		}
	}

	// Small bounds: one lifted program, fewer pass entries than procedures.
	memo := NewMemoWithConfig(MemoConfig{LiftEntries: 1, PassEntries: 5}, nil)
	for round := 0; round < 3; round++ {
		for name, mk := range map[string]func(*testing.T) *link.Program{"a": progA, "b": progB} {
			for _, sched := range []bool{false, true} {
				res, err := Run(ctx, mk(t), WithLevel(LevelFull), WithSchedule(sched), WithMemo(memo))
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%v", name, sched)
				if !bytes.Equal(imageBytes(t, res.Image), want[key]) {
					t.Fatalf("round %d: %s: image diverged under eviction pressure", round, key)
				}
			}
		}
	}
	if st := memo.PassStats(); st.Evictions == 0 {
		t.Error("undersized pass store never evicted; the test exercised nothing")
	}
	if st := memo.LiftStats(); st.Evictions == 0 {
		t.Error("undersized lift store never evicted")
	}
}

// TestMemoTraceAndInstrumentBypass: traced runs recompute their journal
// every time (never replay it away), and instrumentation runs still work
// with a memo attached — both reuse the lifted form only.
func TestMemoTraceAndInstrumentBypass(t *testing.T) {
	ctx := context.Background()
	memo := NewMemo(nil)

	// Prime the pass memo for the same options, so a buggy replay would
	// swallow the journal.
	if _, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithMemo(memo)); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithTrace(), WithMemo(memo))
		if err != nil {
			t.Fatalf("traced warm run %d: %v", i, err)
		}
		if res.Journal == nil || len(res.Journal.Events) == 0 {
			t.Fatalf("traced warm run %d returned no journal", i)
		}
		if len(res.Journal.Events) != len(ref.Journal.Events) {
			t.Errorf("traced warm run %d: %d journal events, want %d",
				i, len(res.Journal.Events), len(ref.Journal.Events))
		}
		if !bytes.Equal(imageBytes(t, res.Image), imageBytes(t, ref.Image)) {
			t.Errorf("traced warm run %d image differs from memo-less traced run", i)
		}
	}

	ins, err := Run(ctx, freshProgram(t), WithInstrumentation(), WithMemo(memo))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Blocks) == 0 {
		t.Error("instrumented run with memo returned no block table")
	}
	insRef, err := Run(ctx, freshProgram(t), WithInstrumentation())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, ins.Image), imageBytes(t, insRef.Image)) {
		t.Error("instrumented image differs with a memo attached")
	}
}

// TestCloneProgIsolation: a cloned program shares nothing mutable with its
// source — running the full pass pipeline on the clone leaves the source
// byte-for-byte reusable.
func TestCloneProgIsolation(t *testing.T) {
	ctx := context.Background()
	p := freshProgram(t)
	pg, err := lift(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pg.par = 1

	emit := func(pg *Prog) []byte {
		pl, err := computePlan(pg, planOpts{})
		if err != nil {
			t.Fatal(err)
		}
		im, err := Emit(pg, pl, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Transform a clone with the most invasive pipeline; the pristine
	// original must still emit the unoptimized image afterwards.
	pristine := cloneProg(pg)
	before := emit(cloneProg(pristine))
	clone := cloneProg(pristine)
	if _, err := runFull(ctx, clone, Ablation{}); err != nil {
		t.Fatal(err)
	}
	after := emit(cloneProg(pristine))
	if !bytes.Equal(before, after) {
		t.Error("transforming a clone mutated the pristine program")
	}

	// The clone's cross-procedure links point into the clone, not the source.
	for pi, pr := range clone.Procs {
		for _, si := range pr.Insts {
			if si.Call() != nil && si.Call().Target != nil {
				if clone.procByDef[[2]int32{int32(si.Call().Target.Mod), si.Call().Target.Sym}] != si.Call().Target {
					t.Fatalf("proc %d: call target escapes the clone", pi)
				}
			}
		}
	}
}

// TestWarmReplayAllocsConstant pins the warm replay's allocation profile:
// once a (program, options) point is resident, a Run allocates a small
// constant number of objects — the emitted image and a fixed amount of
// bookkeeping — independent of how large the program is. The emit scratch
// (final-instruction slices, label slices, the address table) is pooled,
// so growing the program must not grow the allocation count.
func TestWarmReplayAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	ctx := context.Background()
	probe := func(src string) float64 {
		p := buildProgram(t, []tcc.Source{{Name: "prog", Text: src}})
		memo := NewMemo(nil)
		opts := []Option{WithLevel(LevelFull), WithMemo(memo)}
		// First Run stores the snapshot, second settles the pools.
		for i := 0; i < 2; i++ {
			if _, err := Run(ctx, p, opts...); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Run(ctx, p, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}

	small := probe("long main() { return 0; }\n")
	var big strings.Builder
	big.WriteString("long main() {\n\tlong i;\n\ti = 0;\n")
	for i := 0; i < 2000; i++ {
		big.WriteString("\ti = i + 1;\n")
	}
	big.WriteString("\treturn 0;\n}\n")
	bigAllocs := probe(big.String())

	if small > 120 {
		t.Errorf("warm replay allocates %.0f objects, want a small constant", small)
	}
	if diff := bigAllocs - small; diff > 16 || diff < -16 {
		t.Errorf("warm replay allocations scale with program size: %.0f (small) vs %.0f (big)",
			small, bigAllocs)
	}
}

// TestWarmReplayBytesPerOp pins the warm replay's allocated bytes beside
// its object count: a resident same-options relink of li allocates its
// image's initialized bytes and a fixed amount of bookkeeping. li's data
// region is 768 KiB, nearly all of it zero-filled commons; a data segment
// that stored them again would break the bound by an order of magnitude.
func TestWarmReplayBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation figures are not meaningful")
	}
	bench, ok := spec.ByName("li")
	if !ok {
		t.Fatal("no benchmark li")
	}
	p := buildProgram(t, bench.Modules)
	ctx := context.Background()
	opts := []Option{WithLevel(LevelFull), WithMemo(NewMemo(nil))}
	// First Run stores the snapshot, second settles the pools.
	for i := 0; i < 2; i++ {
		if _, err := Run(ctx, p, opts...); err != nil {
			t.Fatal(err)
		}
	}
	// Measure on one P, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(ctx, p, opts...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 64<<10 {
		t.Errorf("warm replay of li allocates %d bytes per relink, want under 64 KiB", perOp)
	} else {
		t.Logf("warm replay of li allocates %d bytes per relink", perOp)
	}
}
