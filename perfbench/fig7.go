package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
)

// fig7 is the fig7-cold workload: Figure 7's OM column and omd's cold path.
// One client links one suite program per op, from serialized object bytes
// through objfile.Read → link.Merge → om.Run → (*Image).Write, at OM-full
// or OM-full+sched, with no cache anywhere.
type fig7 struct {
	cfg   runConfig
	tr    *tracer
	progs []*program
	// ref[2i+s] is program i's image at OM-full (s=0) or OM-full+sched
	// (s=1) from the set-up sweep; each timed op must reproduce its bytes.
	ref    [][]byte
	refIm  []*objfile.Image
	static staticStats
	sw     *sweeper
	buf    bytes.Buffer
	// opsOf counts the timed ops per input, so a failed reference check
	// fails every op that produced the image.
	opsOf []int
	// omTime sums timed-op latency per input (traced runs).
	omTime []time.Duration
}

func newFig7(cfg runConfig, tr *tracer) workload { return &fig7{cfg: cfg, tr: tr} }

func (w *fig7) clients() int { return 1 }
func (w *fig7) close()       {}

func (w *fig7) setup(ctx context.Context) error {
	progs, err := loadSuite(w.cfg.programs)
	if err != nil {
		return err
	}
	w.progs = progs
	n := 2 * len(progs)
	w.ref, w.refIm = make([][]byte, n), make([]*objfile.Image, n)
	w.opsOf, w.omTime = make([]int, n), make([]time.Duration, n)
	for i := 0; i < n; i++ {
		res, err := w.link(ctx, i, nil)
		if err != nil {
			return err
		}
		if w.ref[i], err = imageBytes(res.Image); err != nil {
			return err
		}
		w.refIm[i] = res.Image
		if i%2 == 0 {
			w.static.add(res.Stats)
		}
	}
	w.sw = newSweeper(w.cfg.seed, 0, n)
	return nil
}

// link runs the cold pipeline for input i and leaves the image in w.buf.
// OM runs on one goroutine: a single client then needs a single CPU, so a
// second vCPU stolen by the host does not stall OM's per-procedure fan-out.
func (w *fig7) link(ctx context.Context, i int, sp *obs.Span) (*om.Result, error) {
	p, sched := w.progs[i/2], i%2 == 1
	var err error
	objs := make([]*objfile.Object, 0, len(p.raw)+len(p.libRaw))
	for _, raws := range [][][]byte{p.raw, p.libRaw} {
		for _, raw := range raws {
			var o *objfile.Object
			callAlloc(sp, "objfile.Read", func(*obs.Span) { o, err = objfile.Read(bytes.NewReader(raw)) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			objs = append(objs, o)
		}
	}
	var prog *link.Program
	call(sp, "link.Merge", func() { prog, err = link.Merge(objs) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	var res *om.Result
	callAlloc(sp, "om.Run", func(run *obs.Span) {
		res, err = om.Run(ctx, prog, om.WithLevel(om.LevelFull), om.WithSchedule(sched),
			om.WithParallelism(1), om.WithSpan(run))
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	w.buf.Reset()
	call(sp, "Image.Write", func() { err = res.Image.Write(&w.buf) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return res, nil
}

func (w *fig7) op(ctx context.Context, c, k, id int) (time.Duration, bool, error) {
	i, sweepEnd := w.sw.next()
	tr := w.tr.startOp(id, [2]string{"nosched", "sched"}[i%2])
	start := time.Now()
	_, err := w.link(ctx, i, tr.Root())
	lat := time.Since(start)
	w.tr.keep(tr)
	w.opsOf[i]++
	w.omTime[i] += lat
	if err != nil {
		return lat, sweepEnd, err
	}
	out := w.buf.Bytes()
	if w.cfg.corrupt.hits(id) {
		out[len(out)/2] ^= 0xff
	}
	if !bytes.Equal(out, w.ref[i]) {
		return lat, sweepEnd, checkFailed("%s sched=%v: image differs from the checked image", w.progs[i/2].name, i%2 == 1)
	}
	return lat, sweepEnd, nil
}

func (w *fig7) check(ctx context.Context, r *report) error {
	if err := linkStandard(w.progs, w.tr); err != nil {
		return err
	}
	opt := make([]*objfile.Image, len(w.progs))
	also := make([][]*objfile.Image, len(w.progs))
	for i := range w.progs {
		also[i] = []*objfile.Image{w.refIm[2*i]}
		opt[i] = w.refIm[2*i+1]
	}
	gain, minst, ok, err := fig6Check(w.progs, opt, also)
	if err != nil {
		return err
	}
	for i, good := range ok {
		if !good {
			r.fail(w.opsOf[2*i]+w.opsOf[2*i+1], "%s: OM image output differs from the ld image's", w.progs[i].name)
		}
	}
	r.codeGain, r.simMinstPerS = gain, minst
	var sizes []int
	for _, b := range w.ref {
		sizes = append(sizes, len(b))
	}
	r.imageKB = meanKB(sizes)
	w.static.set(r)
	if w.tr != nil {
		r.layers["link.om_over_ld"] = w.omOverLd()
	}
	return nil
}

// omOverLd is Figure 7's ratio: per program, the mean OM-full op time over
// the median of five standard links, averaged by geometric mean.
func (w *fig7) omOverLd() float64 {
	var logSum float64
	var n int
	for i, p := range w.progs {
		if w.opsOf[2*i] == 0 {
			continue
		}
		var lds []float64
		for j := 0; j < 5; j++ {
			start := time.Now()
			if _, err := link.Link(p.all()); err != nil {
				return 0
			}
			lds = append(lds, float64(time.Since(start)))
		}
		sort.Float64s(lds)
		omMean := float64(w.omTime[2*i]) / float64(w.opsOf[2*i])
		logSum += math.Log(omMean / lds[2])
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
