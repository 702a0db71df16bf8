package om

import (
	"fmt"

	"repro/internal/axp"
	"repro/internal/layout"
	"repro/internal/objfile"
	"repro/internal/profile"
)

// This file is the profile-guided layout pass (WithProfile): reorder
// pg.Procs under a Pettis–Hansen placement computed from the profile's
// call-edge weights, then re-verify every direct call's branch range
// against the new order — a hot/cold split can push a callee beyond the
// bsr's 21-bit displacement window, in which case the jsr→bsr conversion
// is reverted (the call goes back through the GAT, whose 64-bit slot
// reaches anywhere). Reordering itself is safe by construction: emission
// recomputes every displacement and address constant from the symbolic
// form, and no GP-relative displacement depends on a text address.

// layoutResult records what the layout pass did, for the decision journal.
type layoutResult struct {
	// decisions holds one entry per procedure, in final placement order.
	decisions []layoutDecision
	// reverted marks call sites whose jsr→bsr conversion was undone.
	reverted map[*SInst]bool
}

// layoutDecision explains one procedure's placement.
type layoutDecision struct {
	proc   *Proc
	reason string
	detail string
}

// applyLayout reorders the program's procedures under the profile and
// returns a fresh plan for the new order. full selects the revert style
// (delete-undo vs no-op-undo) matching the level that converted the calls;
// sched makes the range check pessimistic about post-layout scheduling
// growth (alignment unops).
func applyLayout(pg *Prog, pl *Plan, prof *profile.Profile, full, sched bool) (*Plan, *layoutResult, error) {
	// Per-procedure hotness by name. Distinct static procedures may share a
	// name across modules; counts attribute to the first occurrence, and
	// later twins get a qualified key so they order stably as cold rather
	// than aliasing the first one's counts.
	weight := make(map[string]uint64, len(prof.Procs))
	for _, pc := range prof.Procs {
		w := pc.Weight
		if w == 0 {
			w = pc.Entries
		}
		weight[pc.Name] = w
	}
	procs := make([]layout.Proc, len(pg.Procs))
	firstIdx := make(map[string]int, len(pg.Procs))
	for i, pr := range pg.Procs {
		key := pr.Name
		if _, dup := firstIdx[pr.Name]; dup {
			key = fmt.Sprintf("%s@%d", pr.Name, pr.Mod)
		} else {
			firstIdx[pr.Name] = i
			procs[i].Weight = weight[pr.Name]
		}
		procs[i].Key = key
	}
	var edges []layout.Edge
	for _, e := range prof.Edges {
		ci, ok := firstIdx[e.Caller]
		if !ok {
			continue
		}
		li, ok := firstIdx[e.Callee]
		if !ok {
			continue
		}
		if pl.regionOf(pg.Procs[ci].Mod) != pl.regionOf(pg.Procs[li].Mod) {
			// Static and shared text are separate address streams; chaining
			// across them cannot create adjacency.
			continue
		}
		edges = append(edges, layout.Edge{From: ci, To: li, Weight: e.Weight})
	}
	ord := layout.Order(procs, edges)

	reordered := make([]*Proc, len(pg.Procs))
	res := &layoutResult{reverted: make(map[*SInst]bool)}
	decisionOf := make(map[*Proc]int, len(pg.Procs))
	for pos, idx := range ord.Order {
		pr := pg.Procs[idx]
		reordered[pos] = pr
		var dec layoutDecision
		dec.proc = pr
		switch ord.Kind[idx] {
		case layout.Chained:
			dec.reason = ReasonLayoutChain
			dec.detail = fmt.Sprintf("chain %d, weight %d", ord.Chain[idx], procs[idx].Weight)
		case layout.Hot:
			dec.reason = ReasonLayoutHot
			dec.detail = fmt.Sprintf("weight %d", procs[idx].Weight)
		default:
			dec.reason = ReasonLayoutCold
		}
		decisionOf[pr] = pos
		res.decisions = append(res.decisions, dec)
	}
	pg.Procs = reordered

	// The new text order invalidates the plan's procedure-address estimates
	// (data placement is unaffected); recompute, then iterate the range
	// check to a fixpoint — reverting a conversion can resurrect a GAT slot
	// and an instruction, shifting later addresses.
	for round := 0; ; round++ {
		var err error
		pl, err = computePlan(pg, pl.opts)
		if err != nil {
			return nil, nil, err
		}
		far := collectFarCalls(pg, pl, sched)
		if len(far) == 0 {
			break
		}
		if round > len(pg.Procs) {
			return nil, nil, fmt.Errorf("om: layout: branch-range fixpoint did not converge")
		}
		for _, fc := range far {
			if fc.si.Call() == nil || !fc.si.Call().FromJSR {
				return nil, nil, fmt.Errorf(
					"om: layout: %s: compiler-direct call to %s cannot reach after reordering",
					fc.pr.Name, fc.si.Call().Target.Name)
			}
			callee := fc.si.Call().Target.Name
			if err := revertCall(fc.si, full); err != nil {
				return nil, nil, err
			}
			res.reverted[fc.si] = true
			d := &res.decisions[decisionOf[fc.pr]]
			d.reason = ReasonLayoutFallback
			d.detail = fmt.Sprintf("call to %s beyond bsr range", callee)
		}
	}
	return pl, res, nil
}

// farCall is a direct call that may not fit its 21-bit displacement under
// the new procedure order.
type farCall struct {
	pr *Proc
	si *SInst
}

// collectFarCalls bounds every direct call's displacement pessimistically:
// procedure sizes are over-estimated (every label may gain an alignment
// unop when sched is on, plus quadword rounding), and each call site is
// tested from both ends of its procedure (scheduling may move it within
// its block). A call that fits under these bounds fits under the real
// emission layout, whose addresses are dominated by the estimate.
func collectFarCalls(pg *Prog, pl *Plan, sched bool) []farCall {
	est := make(map[*Proc]uint64, len(pg.Procs))
	size := make(map[*Proc]uint64, len(pg.Procs))
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for _, pr := range pg.Procs {
		words := uint64(0)
		for _, si := range pr.Insts {
			if !si.Deleted {
				words++
				if sched {
					words += uint64(len(si.Labels()))
				}
			}
		}
		r := pl.regionOf(pr.Mod)
		tcur[r] = (tcur[r] + 7) &^ 7
		est[pr] = tcur[r]
		size[pr] = words
		tcur[r] += words * 4
	}
	var out []farCall
	for _, pr := range pg.Procs {
		first := est[pr]
		last := first
		if size[pr] > 1 {
			last = first + (size[pr]-1)*4
		}
		for _, si := range pr.Insts {
			if si.Deleted || si.Call() == nil {
				continue
			}
			tgt := est[si.Call().Target] + si.Call().EntryOffset
			if _, ok := axp.BranchDispTo(first, tgt); !ok {
				out = append(out, farCall{pr, si})
				continue
			}
			if _, ok := axp.BranchDispTo(last, tgt); !ok {
				out = append(out, farCall{pr, si})
			}
		}
	}
	return out
}

// revertCall undoes a jsr→bsr conversion: the call becomes a GAT-indirect
// jsr again, re-linked to its PV load, which is brought back to life if
// the conversion had nullified it. Sound in every GP regime: the jsr loads
// the callee's address from the GAT, and the callee's entry behavior
// (prologue present or deleted) is unchanged from what the bsr targeted.
func revertCall(si *SInst, full bool) error {
	lit := si.PVLit()
	if lit == nil || lit.Lit == nil {
		return fmt.Errorf("om: layout: cannot revert call to %s: no PV literal",
			si.Call().Target.Name)
	}
	si.In = si.Call().origJSR
	origPV := si.Call().origPV
	si.SetCall(nil)
	si.Use = &UseInfo{Lit: lit, JSR: true}
	lit.Lit.Uses = append(lit.Lit.Uses, si)
	if lit.Lit.Nullified {
		lit.Lit.Nullified = false
		if full {
			lit.Deleted = false // OM-full deletion preserved the instruction
		} else {
			lit.In = origPV // OM-simple overwrote it with a no-op
		}
	}
	return nil
}
