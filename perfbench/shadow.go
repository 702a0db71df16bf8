package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataflow"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
	"repro/internal/verify"
)

// shadow is the check-shadow workload: the `om -verify -lint` shadow check.
// Each op optimizes one suite program at OM-full+sched with the decision
// journal and the dataflow analysis of the lifted and optimized program,
// translation-validates the image, cross-checks the verdicts against the
// journal and analyzes the image. A fault op runs under the standard pass
// fault (a kept address load deleted after the passes, as `omlint
// -faultcheck` injects) and its known answer is "caught"; a clean op's is
// "pass".
type shadow struct {
	cfg   runConfig
	tr    *tracer
	progs []*program
	// merged[i] is program i merged once; om.Run does not modify it.
	merged []*link.Program
	// inputs are (program, fault) pairs: every suite program clean, and
	// faulted the programs of faultPrograms plus the fault fixture.
	inputs []shadowInput
	static staticStats
	sizes  []int
	opt    []*objfile.Image // clean OM-full+sched image per suite program
	sw     *sweeper
	// lost lists the fault inputs in which the set-up sweep found no
	// victim; each counts as a failed check.
	lost []string
}

// faultPrograms are the suite programs whose fault ops check-shadow runs:
// the ones in which OM-full+sched keeps an address load for the pass fault
// to delete. The set is fixed so that the share of fault ops does not
// depend on the code under test; a change to OM that removes the last kept
// load of one of them fails the run instead of silently dropping its fault
// ops.
var faultPrograms = []string{"eqntott", "li"}

type shadowInput struct {
	prog  int
	fault bool
}

// faultFixture is the program `omlint -faultcheck` breaks: its
// address-taken comparator keeps a GAT address load alive under OM-full,
// so the fault always has a victim.
const faultFixture = `
long table[24];
long acc = 0;

long step(long a, long b) { return b - a; }

long main() {
	long i;
	for (i = 0; i < 24; i = i + 1) {
		table[i] = lhash(i) % 97;
		acc = acc + table[i];
	}
	qsort8(table, 0, 23, step);
	print(acc);
	return 0;
}
`

func newShadow(cfg runConfig, tr *tracer) workload { return &shadow{cfg: cfg, tr: tr} }

func (w *shadow) clients() int { return 1 }
func (w *shadow) close()       {}

func (w *shadow) setup(ctx context.Context) error {
	progs, err := loadSuite(w.cfg.programs)
	if err != nil {
		return err
	}
	w.progs = progs
	for _, p := range progs {
		m, err := link.Merge(p.all())
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		w.merged = append(w.merged, m)
	}
	fixture, err := tcc.Compile("fixture", []tcc.Source{{Name: "fixture", Text: faultFixture}}, tcc.DefaultOptions())
	if err != nil {
		return err
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		return err
	}
	m, err := link.Merge(append([]*objfile.Object{fixture}, lib...))
	if err != nil {
		return err
	}
	w.merged = append(w.merged, m)

	// The untimed sweep: every program clean, then every fault input.
	for i := range progs {
		v, err := w.shadowCheck(ctx, shadowInput{prog: i}, nil)
		if err != nil {
			return err
		}
		if v.caught {
			return fmt.Errorf("%s: the clean shadow check fails: %s", progs[i].name, v.why)
		}
		w.inputs = append(w.inputs, shadowInput{prog: i})
		w.static.add(v.res.Stats)
		b, err := imageBytes(v.res.Image)
		if err != nil {
			return err
		}
		w.sizes = append(w.sizes, len(b))
		w.opt = append(w.opt, v.res.Image)
	}
	for i := range w.merged {
		if i < len(progs) && !slices.Contains(faultPrograms, progs[i].name) {
			continue
		}
		in := shadowInput{prog: i, fault: true}
		w.inputs = append(w.inputs, in)
		v, err := w.shadowCheck(ctx, in, nil)
		if err != nil {
			return err
		}
		if !v.injected {
			w.lost = append(w.lost, w.name(in))
		}
	}
	w.sw = newSweeper(w.cfg.seed, 0, len(w.inputs))
	return nil
}

// verdict is one shadow check's outcome.
type verdict struct {
	res      *om.Result
	injected bool
	caught   bool
	why      string
}

// shadowCheck runs the four checkers over one input; a check that flags
// the image makes the verdict "caught". OM runs on one goroutine, for the
// reason fig7-cold's does.
func (w *shadow) shadowCheck(ctx context.Context, in shadowInput, sp *obs.Span) (*verdict, error) {
	v := &verdict{}
	if in.fault {
		restore := om.SetFaultHookForTesting(func(pg *om.Prog) { v.injected = deleteKeptLoad(pg) })
		defer restore()
	}
	reports := map[om.ProgStage]*dataflow.Report{}
	run := sp.Child("om.Run")
	observe := func(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
		var rep *dataflow.Report
		var err error
		call(run, "dataflow.AnalyzeProg", func() { rep, err = dataflow.AnalyzeProg(pg, pl, string(stage)) })
		reports[stage] = rep
		return err
	}
	var err error
	v.res, err = om.Run(ctx, w.merged[in.prog], om.WithLevel(om.LevelFull), om.WithSchedule(true),
		om.WithParallelism(1), om.WithTrace(), om.WithProgObserver(observe), om.WithSpan(run))
	run.End()
	if err != nil {
		return nil, err
	}
	flag := func(format string, args ...any) {
		if !v.caught {
			v.caught, v.why = true, fmt.Sprintf(format, args...)
		}
	}
	if pre, post := reports[om.StageLifted], reports[om.StageOptimized]; pre == nil || post == nil {
		return nil, fmt.Errorf("lint stages missing")
	} else if n := len(lintRegressions(pre, post)); n > 0 {
		flag("lint: the passes introduced %d error finding(s)", n)
	}
	var doc *verify.Doc
	call(sp, "verify.ValidateImage", func() { doc, err = verify.ValidateImage(v.res.Image, v.res.Journal) })
	if err != nil {
		flag("verify: %v", err)
	} else {
		if err := doc.Err(); err != nil {
			flag("verify: %v", err)
		}
		call(sp, "Doc.CrossCheck", func() { err = doc.CrossCheck(v.res.Journal) })
		if err != nil {
			flag("verify: %v", err)
		}
	}
	var prog *dataflow.Program
	call(sp, "dataflow.FromImage", func() { prog, err = dataflow.FromImage(v.res.Image) })
	if err != nil {
		flag("lint image: %v", err)
	} else {
		var rep *dataflow.Report
		call(sp, "dataflow.Analyze", func() { rep = dataflow.Analyze(prog) })
		if n := rep.Errors(); n > 0 {
			flag("lint image: %d error finding(s)", n)
		}
	}
	return v, nil
}

// deleteKeptLoad is the standard pass fault: it deletes the first address
// load OM kept, and reports whether it found one.
func deleteKeptLoad(pg *om.Prog) bool {
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified && !si.Deleted {
				si.Deleted = true
				return true
			}
		}
	}
	return false
}

// lintRegressions returns the post-pass error findings absent from the
// pre-pass report, keyed by (check, procedure), as `om -lint` does.
func lintRegressions(pre, post *dataflow.Report) []dataflow.Finding {
	had := make(map[string]bool)
	for _, f := range pre.Findings {
		if f.Severity == dataflow.SevError {
			had[f.ID+"\x00"+f.Proc] = true
		}
	}
	var out []dataflow.Finding
	for _, f := range post.Findings {
		if f.Severity == dataflow.SevError && !had[f.ID+"\x00"+f.Proc] {
			out = append(out, f)
		}
	}
	return out
}

func (w *shadow) op(ctx context.Context, c, k, id int) (time.Duration, bool, error) {
	j, sweepEnd := w.sw.next()
	in := w.inputs[j]
	tr := w.tr.startOp(id, [2]string{"clean", "fault"}[btoi(in.fault)])
	start := time.Now()
	v, err := w.shadowCheck(ctx, in, tr.Root())
	lat := time.Since(start)
	w.tr.keep(tr)
	if err != nil {
		return lat, sweepEnd, err
	}
	caught := v.caught
	if w.cfg.corrupt.hits(id) {
		caught = !caught
	}
	if in.fault && !v.injected {
		return lat, sweepEnd, checkFailed("%s: the pass fault found no victim", w.name(in))
	}
	if caught != in.fault {
		return lat, sweepEnd, checkFailed("%s fault=%v: verdict caught=%v (%s)", w.name(in), in.fault, caught, v.why)
	}
	return lat, sweepEnd, nil
}

func (w *shadow) name(in shadowInput) string {
	if in.prog < len(w.progs) {
		return w.progs[in.prog].name
	}
	return "fixture"
}

func (w *shadow) check(ctx context.Context, r *report) error {
	for _, name := range w.lost {
		r.fail(1, "%s: the pass fault found no kept address load to delete in set-up", name)
	}
	if err := linkStandard(w.progs, w.tr); err != nil {
		return err
	}
	gain, minst, ok, err := fig6Check(w.progs, w.opt, nil)
	if err != nil {
		return err
	}
	for i, good := range ok {
		if !good {
			r.fail(1, "%s: checked image output differs from the ld image's", w.progs[i].name)
		}
	}
	r.codeGain, r.simMinstPerS = gain, minst
	r.imageKB = meanKB(w.sizes)
	w.static.set(r)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
