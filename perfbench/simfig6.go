package main

import (
	"context"
	"errors"
	"time"

	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/sim"
)

// simFig6 is the sim-fig6 workload: the simulator runs behind Figure 6.
// Set-up links every suite program under ld, OM-full and OM-full+sched;
// each op is one timing-mode sim.New + Machine.Run of one image, and its
// output must equal the ld image's.
type simFig6 struct {
	cfg   runConfig
	tr    *tracer
	progs []*program
	// images[3i+v] is program i linked by ld (v=0), OM-full (v=1) or
	// OM-full+sched (v=2).
	images []*objfile.Image
	sizes  []int
	ref    []*sim.Result // functional run of each ld image
	static staticStats
	sw     *sweeper
	// stats[j] is the first timing run's counters of image j; a later run
	// of the same image must repeat them exactly.
	stats  []*sim.Stats
	insts  uint64
	simmed time.Duration
}

var variantTags = [3]string{"ld", "om-full", "om-full+sched"}

func newSimFig6(cfg runConfig, tr *tracer) workload { return &simFig6{cfg: cfg, tr: tr} }

func (w *simFig6) clients() int { return 1 }
func (w *simFig6) close()       {}

func (w *simFig6) setup(ctx context.Context) error {
	progs, err := loadSuite(w.cfg.programs)
	if err != nil {
		return err
	}
	w.progs = progs
	if err := linkStandard(progs, w.tr); err != nil {
		return err
	}
	for _, p := range progs {
		full, err := optimize(ctx, p.all(), om.WithLevel(om.LevelFull))
		if err != nil {
			return err
		}
		sched, err := optimize(ctx, p.all(), om.WithLevel(om.LevelFull), om.WithSchedule(true))
		if err != nil {
			return err
		}
		w.static.add(full.Stats)
		w.images = append(w.images, p.ldImage, full.Image, sched.Image)
	}
	for _, im := range w.images {
		b, err := imageBytes(im)
		if err != nil {
			return err
		}
		w.sizes = append(w.sizes, len(b))
		if _, err := sim.New(im, simConfig(true)); err != nil {
			return err
		}
	}
	w.ref = make([]*sim.Result, len(progs))
	errs := make([]error, len(progs))
	forEach(len(progs), func(i int) { w.ref[i], errs[i] = sim.Run(progs[i].ldImage, simConfig(false)) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.stats = make([]*sim.Stats, len(w.images))
	w.sw = newSweeper(w.cfg.seed, 0, len(w.images))
	return nil
}

func (w *simFig6) op(ctx context.Context, c, k, id int) (time.Duration, bool, error) {
	j, sweepEnd := w.sw.next()
	tr := w.tr.startOp(id, variantTags[j%3])
	sp := tr.Root()
	start := time.Now()
	var m *sim.Machine
	var res *sim.Result
	var err error
	call(sp, "sim.New", func() { m, err = sim.New(w.images[j], simConfig(true)) })
	if err == nil {
		call(sp, "Machine.Run", func() { res, err = m.RunContext(ctx) })
	}
	lat := time.Since(start)
	w.tr.keep(tr)
	if err != nil {
		return lat, sweepEnd, err
	}
	w.insts += res.Stats.Instructions
	w.simmed += lat
	if w.cfg.corrupt.hits(id) {
		res.Exit ^= 1
	}
	name := w.progs[j/3].name
	if !sameOutput(w.ref[j/3], res) {
		return lat, sweepEnd, checkFailed("%s %s: output differs from the ld image's", name, variantTags[j%3])
	}
	if prev := w.stats[j]; prev == nil {
		st := res.Stats
		w.stats[j] = &st
	} else if *prev != res.Stats {
		return lat, sweepEnd, checkFailed("%s %s: timing counters differ between runs", name, variantTags[j%3])
	}
	return lat, sweepEnd, nil
}

func (w *simFig6) check(ctx context.Context, r *report) error {
	var base, tuned []uint64
	var tot sim.Stats
	for i := range w.progs {
		ld, opt := w.stats[3*i], w.stats[3*i+2]
		if ld == nil || opt == nil {
			r.fail(1, "%s: not every variant was simulated", w.progs[i].name)
			continue
		}
		base, tuned = append(base, ld.Cycles), append(tuned, opt.Cycles)
	}
	for _, st := range w.stats {
		if st != nil {
			tot.Instructions += st.Instructions
			tot.Cycles += st.Cycles
			tot.ICacheMisses += st.ICacheMisses
			tot.DCacheMisses += st.DCacheMisses
			tot.DualIssued += st.DualIssued
		}
	}
	r.codeGain = geomeanGain(base, tuned)
	r.simMinstPerS = float64(w.insts) / 1e6 / w.simmed.Seconds()
	r.imageKB = meanKB(w.sizes)
	w.static.set(r)
	r.layers["sim.insts"] = float64(tot.Instructions)
	r.layers["sim.cycles"] = float64(tot.Cycles)
	r.layers["sim.icache_misses"] = float64(tot.ICacheMisses)
	r.layers["sim.dcache_misses"] = float64(tot.DCacheMisses)
	if tot.Instructions > 0 {
		r.layers["sim.dual_issue_pct"] = 100 * float64(tot.DualIssued) / float64(tot.Instructions)
	}
	return nil
}
