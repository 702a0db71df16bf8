package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// program is one suite program: its separately compiled modules, as
// objects and serialized, and the runtime library objects it links with.
type program struct {
	name    string
	objs    []*objfile.Object // modules only
	raw     [][]byte          // modules only, serialized
	lib     []*objfile.Object
	libRaw  [][]byte
	ldImage *objfile.Image // standard link, the reference OM did not produce
}

// all returns the program's modules followed by the library.
func (p *program) all() []*objfile.Object {
	return append(append([]*objfile.Object(nil), p.objs...), p.lib...)
}

// loadSuite compiles the programs of the Figure 3–7 suite the way the
// harness does (one object per module plus the runtime library) and
// serializes the objects. names, when not empty, selects a subset.
func loadSuite(names []string) ([]*program, error) {
	lib, err := rtlib.StandardObjects()
	if err != nil {
		return nil, err
	}
	libRaw, err := serialize(lib)
	if err != nil {
		return nil, err
	}
	var progs []*program
	for _, b := range spec.All() {
		if len(names) > 0 && !slices.Contains(names, b.Name) {
			continue
		}
		p := &program{name: b.Name, lib: lib, libRaw: libRaw}
		for _, m := range b.Modules {
			obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			p.objs = append(p.objs, obj)
		}
		if p.raw, err = serialize(p.objs); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func serialize(objs []*objfile.Object) ([][]byte, error) {
	var raw [][]byte
	for _, o := range objs {
		var buf bytes.Buffer
		if err := o.Write(&buf); err != nil {
			return nil, err
		}
		raw = append(raw, buf.Bytes())
	}
	return raw, nil
}

func imageBytes(im *objfile.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// linkStandard links every program with the standard linker, the
// reference the output checks compare OM's images against.
func linkStandard(progs []*program, tr *tracer) error {
	for _, p := range progs {
		var err error
		ld := tr.startCall("link.Link")
		p.ldImage, err = link.Link(p.all())
		tr.keep(ld)
		if err != nil {
			return fmt.Errorf("%s: ld: %w", p.name, err)
		}
	}
	return nil
}

// optimize runs the cold OM pipeline on a program's objects.
func optimize(ctx context.Context, objs []*objfile.Object, opts ...om.Option) (*om.Result, error) {
	p, err := link.Merge(objs)
	if err != nil {
		return nil, err
	}
	return om.Run(ctx, p, opts...)
}

// simConfig is the timing model the Figure 6 harness uses.
func simConfig(timing bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Timing = timing
	cfg.MaxInstructions = 2_000_000_000
	return cfg
}

// sameOutput compares two program runs as a user would: exit code and
// everything printed.
func sameOutput(a, b *sim.Result) bool {
	return a.Exit == b.Exit && slices.Equal(a.Output, b.Output) && bytes.Equal(a.OutBytes, b.OutBytes)
}

// fig6Check simulates each program's standard-linked image and its
// OM-full+sched image opt[i] in timing mode, and the images in also[i]
// functionally. Every OM image's output must equal the ld image's. It
// returns the Figure 6 gain, the simulator's speed over the timing runs
// and, per program, whether its OM images behaved. The simulations run one
// at a time, so the speed is not that of two runs contending.
func fig6Check(progs []*program, opt []*objfile.Image, also [][]*objfile.Image) (gain, minstPerS float64, ok []bool, err error) {
	var base, tuned []uint64
	var insts uint64
	var busy time.Duration
	for i, p := range progs {
		start := time.Now()
		ref, err := sim.Run(p.ldImage, simConfig(true))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s: ld: %w", p.name, err)
		}
		got, err := sim.Run(opt[i], simConfig(true))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s: om: %w", p.name, err)
		}
		busy += time.Since(start)
		insts += ref.Stats.Instructions + got.Stats.Instructions
		base, tuned = append(base, ref.Stats.Cycles), append(tuned, got.Stats.Cycles)
		good := sameOutput(ref, got)
		if also != nil {
			for _, im := range also[i] {
				r, err := sim.Run(im, simConfig(false))
				if err != nil {
					return 0, 0, nil, fmt.Errorf("%s: om: %w", p.name, err)
				}
				good = good && sameOutput(ref, r)
			}
		}
		ok = append(ok, good)
	}
	return geomeanGain(base, tuned), float64(insts) / 1e6 / busy.Seconds(), ok, nil
}

// forEach calls fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// staticStats sums OM's Figure 3 and Figure 5 counts.
type staticStats struct{ addrLoads, addrRemoved, insts, instsRemoved int }

func (s *staticStats) add(st *om.Stats) {
	s.addrLoads += st.AddressLoads
	s.addrRemoved += st.AddrConverted + st.AddrNullified
	s.insts += st.Instructions
	s.instsRemoved += st.Nullified + st.Deleted
}

// set writes the two percentages into the report.
func (s *staticStats) set(r *report) {
	if s.addrLoads > 0 {
		r.addrRemoved = 100 * float64(s.addrRemoved) / float64(s.addrLoads)
	}
	if s.insts > 0 {
		r.instsRemoved = 100 * float64(s.instsRemoved) / float64(s.insts)
	}
}

func meanKB(sizes []int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	var sum int
	for _, s := range sizes {
		sum += s
	}
	return float64(sum) / 1024 / float64(len(sizes))
}
