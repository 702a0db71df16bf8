// Instrument: uses OM's symbolic form as a link-time program-analysis and
// instrumentation platform (the capability the paper points to with ATOM).
// It lifts a whole linked program, reports its static structure (basic
// blocks, address loads, call graph), then inserts a counting trap at every
// basic block, runs the instrumented binary, and prints the hottest
// procedures — pixie-style profiling without compiler support.
//
//	go run ./examples/instrument
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

func main() {
	// Analyze one of the benchmark programs.
	bench, _ := spec.ByName("li")
	var objs []*objfile.Object
	for _, m := range bench.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		log.Fatal(err)
	}
	p, err := link.Merge(append(objs, lib...))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := om.Lift(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("whole-program analysis of %q: %d procedures\n\n", bench.Name, len(prog.Procs))
	fmt.Printf("%-18s %6s %7s %9s %7s %9s\n",
		"procedure", "insts", "blocks", "addrloads", "calls", "indirect")
	totalBlocks, totalCalls := 0, 0
	for _, pr := range prog.Procs {
		blocks := 1
		addrLoads, calls, indirect := 0, 0, 0
		for i, si := range pr.Insts {
			if i > 0 && len(si.Labels()) > 0 {
				blocks++
			}
			if si.In.Op.IsBranch() && i+1 < len(pr.Insts) {
				blocks++
			}
			if si.Lit != nil {
				addrLoads++
			}
			if si.In.Op.IsCall() {
				calls++
				if si.Indirect {
					indirect++
				}
			}
		}
		totalBlocks += blocks
		totalCalls += calls
		fmt.Printf("%-18s %6d %7d %9d %7d %9d\n",
			pr.Name, len(pr.Insts), blocks, addrLoads, calls, indirect)
	}
	fmt.Printf("\ntotals: %d basic blocks, %d call sites\n", totalBlocks, totalCalls)

	// The call graph, recovered from relocations alone.
	fmt.Println("\nstatic call graph (direct calls via the GAT or bsr):")
	for _, pr := range prog.Procs {
		var callees []string
		for _, si := range pr.Insts {
			var target *om.Proc
			if si.Call() != nil {
				target = si.Call().Target
			} else if si.Use != nil && si.Use.JSR {
				target = prog.ProcFor(si.Use.Lit.Lit.Key)
			}
			if target != nil {
				callees = append(callees, target.Name)
			}
		}
		if len(callees) > 0 {
			fmt.Printf("  %-16s -> %v\n", pr.Name, callees)
		}
	}

	// Now the dynamic side: instrument every basic block, run, and rank.
	ires, err := om.Run(context.Background(), p, om.WithInstrumentation())
	if err != nil {
		log.Fatal(err)
	}
	im, blocks := ires.Image, ires.Blocks
	res, err := sim.Run(im, sim.Config{MaxInstructions: 200_000_000})
	if err != nil {
		log.Fatal(err)
	}
	perProc := map[string]uint64{}
	for _, b := range blocks {
		perProc[b.Proc] += res.Profile[b.ID]
	}
	type hot struct {
		name  string
		count uint64
	}
	var hots []hot
	for name, c := range perProc {
		hots = append(hots, hot{name, c})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].name < hots[j].name
	})
	fmt.Printf("\ndynamic profile (%d blocks instrumented, program output %v):\n", len(blocks), res.Output)
	fmt.Printf("%-18s %14s\n", "procedure", "block entries")
	for i, h := range hots {
		if i >= 8 {
			break
		}
		fmt.Printf("%-18s %14d\n", h.name, h.count)
	}

	// Close the feedback loop: the counts become an om-profile, and
	// relinking with it lays the hot procedures out front (Pettis-Hansen
	// chain merging), verified against the plain OM-full link.
	prof := profile.FromTraps(om.TrapBlocks(blocks), res.Profile)
	fmt.Printf("\nprofile: %d procedures, %d call edges (hash %.12s)\n",
		len(prof.Procs), len(prof.Edges), prof.Hash())
	relink := func(opts ...om.Option) *sim.Result {
		p, err := link.Merge(append(objs, lib...))
		if err != nil {
			log.Fatal(err)
		}
		omres, err := om.Run(context.Background(), p, opts...)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Run(omres.Image, sim.Config{MaxInstructions: 200_000_000})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	base := relink(om.WithLevel(om.LevelFull))
	pgo := relink(om.WithLevel(om.LevelFull), om.WithProfile(prof))
	if fmt.Sprint(base.Exit, base.Output) != fmt.Sprint(pgo.Exit, pgo.Output) {
		log.Fatal("profile-guided layout changed program behavior")
	}
	fmt.Println("relinked with profile-guided layout: output identical to OM-full")
}
