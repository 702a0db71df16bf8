package om

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/sim"
)

// collectProfile runs the instrumented build of the program and converts
// the trap counts into an om-profile.
func collectProfile(t *testing.T) *profile.Profile {
	t.Helper()
	res, err := Run(context.Background(), freshProgram(t), WithInstrumentation())
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	simres := run(t, res.Image)
	if len(simres.Profile) == 0 {
		t.Fatal("instrumented run produced no trap counts")
	}
	p := profile.FromTraps(TrapBlocks(res.Blocks), simres.Profile)
	if len(p.Edges) == 0 {
		t.Fatal("trap profile has no call edges; layout would be vacuous")
	}
	return p
}

// TestLayoutSemanticsPreserved: OM-full with profile-guided layout produces
// a program with identical behavior, and the hot procedures move ahead of
// cold ones in the image.
func TestLayoutSemanticsPreserved(t *testing.T) {
	prof := collectProfile(t)

	base, err := Run(context.Background(), freshProgram(t), WithLevel(LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, base.Image)

	for _, sched := range []bool{false, true} {
		res, err := Run(context.Background(), freshProgram(t),
			WithLevel(LevelFull), WithSchedule(sched), WithProfile(prof))
		if err != nil {
			t.Fatalf("om-full+layout sched=%v: %v", sched, err)
		}
		got := run(t, res.Image)
		if got.Exit != want.Exit || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
			t.Errorf("sched=%v: layout changed behavior: exit %d/%d output %v vs %v",
				sched, got.Exit, want.Exit, got.Output, want.Output)
		}
	}

	// The layout must actually reorder: weight of the first placed
	// procedure is positive (a hot chain head), not whatever module order
	// put first.
	res, err := Run(context.Background(), freshProgram(t),
		WithLevel(LevelFull), WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[string]uint64)
	for _, pc := range prof.Procs {
		weights[pc.Name] = pc.Weight
	}
	firstAddr, firstName := ^uint64(0), ""
	for _, s := range res.Image.Symbols {
		if s.Kind == objfile.SymProc && s.Addr < firstAddr {
			firstAddr, firstName = s.Addr, s.Name
		}
	}
	if weights[firstName] == 0 {
		t.Errorf("first placed procedure %q is cold; layout did not take effect", firstName)
	}
}

// TestLayoutIdempotent: re-laying-out an already-laid-out program is a
// no-op — the second application returns the procedures in the same order.
func TestLayoutIdempotent(t *testing.T) {
	prof := collectProfile(t)

	pg, err := Lift(freshProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := runFull(context.Background(), pg, Ablation{})
	if err != nil {
		t.Fatal(err)
	}
	order := func() []string {
		names := make([]string, len(pg.Procs))
		for i, pr := range pg.Procs {
			names[i] = pr.Name
		}
		return names
	}
	pl, _, err = applyLayout(pg, pl, prof, true, false)
	if err != nil {
		t.Fatal(err)
	}
	first := order()
	_, _, err = applyLayout(pg, pl, prof, true, false)
	if err != nil {
		t.Fatal(err)
	}
	second := order()
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("layout is not idempotent:\nfirst  %v\nsecond %v", first, second)
	}
}

// TestLayoutJournalAccounting: with WithProfile and WithTrace, the journal
// gains a layout category accounting for every procedure exactly once, and
// still passes its self-check.
func TestLayoutJournalAccounting(t *testing.T) {
	prof := collectProfile(t)
	res, err := Run(context.Background(), freshProgram(t),
		WithLevel(LevelFull), WithProfile(prof), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Journal
	if err := d.Check(); err != nil {
		t.Fatalf("journal self-check: %v", err)
	}
	seen := make(map[string]int)
	var n uint64
	for _, e := range d.Events {
		if e.Cat != "layout" {
			continue
		}
		n++
		seen[e.Proc+"/"+fmt.Sprint(e.Index)]++
		switch e.Reason {
		case ReasonLayoutChain, ReasonLayoutHot, ReasonLayoutCold, ReasonLayoutFallback:
		default:
			t.Errorf("unexpected layout reason %q", e.Reason)
		}
	}
	if n != d.Totals["layout"] {
		t.Errorf("layout events %d, total %d", n, d.Totals["layout"])
	}
	if n == 0 {
		t.Fatal("no layout events")
	}
	var chains int
	for r, c := range d.Counts {
		if r == ReasonLayoutChain {
			chains = int(c)
		}
	}
	if chains == 0 {
		t.Error("no procedure placed in a hot chain; fixture profile is vacuous")
	}
}

// TestLayoutRevert exercises the bsr fallback machinery directly: after
// OM-full converts calls, revert one and re-plan; the program must still
// behave identically (the call goes back through the GAT, whose slot and
// PV load are resurrected).
func TestLayoutRevert(t *testing.T) {
	base, err := Run(context.Background(), freshProgram(t), WithLevel(LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, base.Image)

	pg, err := Lift(freshProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := runFull(context.Background(), pg, Ablation{})
	if err != nil {
		t.Fatal(err)
	}
	reverted := 0
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Deleted || si.Call() == nil || !si.Call().FromJSR {
				continue
			}
			if err := revertCall(si, true); err != nil {
				t.Fatalf("revert in %s: %v", pr.Name, err)
			}
			reverted++
		}
	}
	if reverted == 0 {
		t.Fatal("fixture converted no calls; revert test is vacuous")
	}
	pl, err = computePlan(pg, pl.opts)
	if err != nil {
		t.Fatal(err)
	}
	im, err := Emit(pg, pl, false)
	if err != nil {
		t.Fatalf("emit after revert: %v", err)
	}
	got := run(t, im)
	if got.Exit != want.Exit || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
		t.Fatalf("reverting all conversions changed behavior: %v vs %v", got.Output, want.Output)
	}
}

// TestLayoutStaleProfileRejected: a profile naming procedures the program
// does not contain fails the Run instead of silently mislaying code.
func TestLayoutStaleProfileRejected(t *testing.T) {
	p := profile.New("synthetic")
	p.Procs = []profile.ProcCount{{Name: "no_such_procedure", Entries: 1, Weight: 1}}
	_, err := Run(context.Background(), freshProgram(t),
		WithLevel(LevelFull), WithProfile(p))
	if err == nil {
		t.Fatal("stale profile accepted")
	}
}

// TestLayoutAtEveryLevel: WithProfile composes with every level (reverts
// need level-matched undo, reordering needs none), preserving behavior.
func TestLayoutAtEveryLevel(t *testing.T) {
	prof := collectProfile(t)
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, baseIm)
	for _, level := range []Level{LevelNone, LevelSimple, LevelFull} {
		res, err := Run(context.Background(), freshProgram(t),
			WithLevel(level), WithProfile(prof))
		if err != nil {
			t.Fatalf("%v+layout: %v", level, err)
		}
		got := run(t, res.Image)
		if got.Exit != want.Exit || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
			t.Errorf("%v+layout changed behavior", level)
		}
	}
}

// TestProfileFromEngine: the engine-profiler source (FromImage) builds an
// equivalent pipeline input — procedures attribute, entries count, and on
// an OM-full image (calls converted to bsr) edges decode.
func TestProfileFromEngine(t *testing.T) {
	res, err := Run(context.Background(), freshProgram(t), WithLevel(LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	simres, err := sim.Run(res.Image, sim.Config{MaxInstructions: 100_000_000, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]profile.PCBlock, len(simres.BlockProfile))
	for i, b := range simres.BlockProfile {
		blocks[i] = profile.PCBlock{PC: b.PC, Len: b.Len, Count: b.Count}
	}
	p, err := profile.FromImage(res.Image, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source != "engine" {
		t.Errorf("source %q", p.Source)
	}
	if len(p.Procs) == 0 || len(p.Edges) == 0 {
		t.Fatalf("engine profile is empty: %d procs, %d edges", len(p.Procs), len(p.Edges))
	}
	var mainEntries uint64
	for _, pc := range p.Procs {
		if pc.Name == "main" {
			mainEntries = pc.Entries
		}
	}
	if mainEntries != 1 {
		t.Errorf("main entries = %d, want 1", mainEntries)
	}

	// The engine profile drives the same layout pipeline.
	res2, err := Run(context.Background(), freshProgram(t),
		WithLevel(LevelFull), WithProfile(p))
	if err != nil {
		t.Fatalf("om-full+engine-profile: %v", err)
	}
	want := run(t, res.Image)
	got := run(t, res2.Image)
	if got.Exit != want.Exit || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
		t.Error("engine-profile layout changed behavior")
	}
}
