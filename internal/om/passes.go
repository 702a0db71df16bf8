package om

import (
	"context"

	"repro/internal/axp"
)

// applyCallOpts converts general jsr calls through the GAT into direct bsr
// calls, retargets them past the callee's GP-setup pair when legal, and
// removes the PV load when nothing needs PV any more. Returns whether
// anything changed.
//
// In OM-simple (full=false) the jsr may be replaced by a bsr and the PV load
// no-op'd, but only when the callee's pair already sits at entry — code is
// never moved, so a displaced pair blocks the skip (and therefore the
// PV-load nullification), exactly as the paper reports.
func applyCallOpts(pg *Prog, pl *Plan, full bool) bool {
	singleGAT := len(pl.gat.Slots) == 1
	// Call sites mutate only their own procedure (the PV literal a LITUSE
	// chain names is always in the same procedure); callee state is only
	// read, and no concurrent call writes it. Safe to fan out per procedure.
	return pg.forEachProc(func(pr *Proc) bool {
		changed := false
		// A caller whose own prologue was deleted holds whatever GP its
		// caller had; with multiple GATs that value cannot be trusted to
		// satisfy a skipped callee prologue.
		gpTrusted := singleGAT || !pr.PrologueDeleted
		for _, si := range pr.Insts {
			if si.Deleted || si.In.Op != axp.JSR || si.Use == nil || !si.Use.JSR {
				continue
			}
			lit := si.Use.Lit
			callee := pg.ProcFor(lit.Lit.Key)
			if callee == nil {
				continue
			}
			if pl.regionOf(pr.Mod) != pl.regionOf(callee.Mod) {
				// A call into (or out of) a shared library: the bsr's 21-bit
				// displacement cannot span the regions, and "calls to
				// dynamically linked library routines cannot be optimized as
				// statically linked calls can" (§6). Leave the jsr, its PV
				// load, and its GP reset alone.
				continue
			}
			sameGAT := pl.SameGAT(pr, callee)
			entryOff := uint64(0)
			needPV := true
			switch {
			case callee.PrologueDeleted:
				// Sound only when the deletion itself was sound (decided in
				// applyPrologueOpts); the call needs no PV.
				needPV = false
			case callee.PairAtEntry && sameGAT && gpTrusted:
				entryOff = 8
				needPV = false
			default:
				// Displaced pair, different GAT, or untrusted caller GP:
				// the callee's pair executes and computes GP from PV.
				needPV = true
			}
			si.SetCall(&CallInfo{Target: callee, EntryOffset: entryOff, FromJSR: true,
				origJSR: si.In, origPV: lit.In})
			si.In = axp.BranchInst(axp.BSR, axp.RA, 0)
			si.Use = nil
			for i, u := range lit.Lit.Uses {
				if u == si {
					lit.Lit.Uses = append(lit.Lit.Uses[:i], lit.Lit.Uses[i+1:]...)
					break
				}
			}
			if !needPV && len(lit.Lit.Uses) == 0 && !lit.Lit.Nullified {
				lit.Lit.Nullified = true
				nullifyInst(lit, full)
			}
			changed = true
		}
		return changed
	})
}

// normalizeLocalEntries re-derives the entry offset of every direct call
// after prologue decisions changed (a deleted pair turns entry+8 back into
// entry+0).
func normalizeLocalEntries(pg *Prog) {
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Deleted || si.Call() == nil {
				continue
			}
			callee := si.Call().Target
			switch {
			case callee.PrologueDeleted:
				si.Call().EntryOffset = 0
			case si.Call().EntryOffset == 8 && !callee.PairAtEntry:
				si.Call().EntryOffset = 0
			}
		}
	}
}

// applyPrologueOpts (OM-full only) deletes procedure GP-setup pairs.
//
// With a single program-wide GAT, GP is a constant of the whole execution:
// the entry procedure establishes it once and no remaining instruction ever
// changes it, so every other prologue pair is dead — including those of
// address-taken procedures reached through procedure variables. This is the
// whole-program reasoning that only a link-time optimizer can do.
//
// With multiple GATs the pass is conservative: a pair is deleted only when
// its procedure never reads GP and never makes a call that relies on the
// caller's GP (an entry+8 skip).
func applyPrologueOpts(pg *Prog, pl *Plan) bool {
	singleGAT := len(pl.gat.Slots) == 1
	changed := false
	for _, pr := range pg.Procs {
		if pr.PrologueDeleted {
			continue
		}
		hi, _, _ := pairPosition(pr)
		if hi == nil {
			continue
		}
		deletable := false
		if singleGAT {
			deletable = pr.Name != pg.P.EntryName
		} else {
			deletable = !procUsesGP(pr) && !hasGPReliantCalls(pr)
		}
		if !deletable {
			continue
		}
		hi.Deleted = true
		hi.GPD().Partner.Deleted = true
		pr.PrologueDeleted = true
		pr.PairAtEntry = false
		changed = true
	}
	if changed {
		normalizeLocalEntries(pg)
	}
	return changed
}

// hasGPReliantCalls reports whether the procedure makes a direct call that
// skips the callee's GP setup (and therefore passes its own GP along).
func hasGPReliantCalls(pr *Proc) bool {
	for _, si := range pr.Insts {
		if si.Deleted || si.Call() == nil {
			continue
		}
		if si.Call().EntryOffset == 8 || si.Call().Target.PrologueDeleted {
			return true
		}
	}
	return false
}

// Level selects the optimization level.
type Level int

const (
	// LevelNone lifts and regenerates code without optimizing (the "OM no
	// opt" configuration of the paper's build-time table).
	LevelNone Level = iota
	// LevelSimple is the traditional-linker level: one-for-one instruction
	// replacement, no code motion; removed instructions become no-ops.
	LevelSimple
	// LevelFull understands control structure and may delete, insert, and
	// reorder instructions: prologue restoration, bsr retargeting past
	// GP-setup, PV-load removal, GAT reduction, and (optionally)
	// rescheduling with quadword alignment of branch targets.
	LevelFull
)

// String names the optimization level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "om-none"
	case LevelSimple:
		return "om-simple"
	case LevelFull:
		return "om-full"
	}
	return "om-?"
}

// runSimple performs the OM-simple pass set against a fixed layout.
func runSimple(pg *Prog) (*Plan, error) {
	// OM-simple sorts commons near the GAT and picks the GP, but never
	// changes instruction counts, so one layout round suffices.
	pl, err := computePlan(pg, planOpts{reduceGAT: false, sortCommons: true})
	if err != nil {
		return nil, err
	}
	markPairPositions(pg)
	applyCallOpts(pg, pl, false)
	applyGPResetOpts(pg, pl, false)
	applyAddressOpts(pg, pl, false)
	return pl, nil
}

// runFull performs the OM-full pass set, iterating with GAT reduction until
// the layout and the code reach a fixpoint. The zero Ablation runs every
// component; each switch disables one (the ablation study). The context is
// checked between rounds, the natural cancellation points of the fixpoint.
func runFull(ctx context.Context, pg *Prog, ab Ablation) (*Plan, error) {
	if !ab.NoPrologueRestore {
		restoreProloguePairs(pg)
	} else {
		markPairPositions(pg)
	}
	var pl *Plan
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		pl, err = computePlan(pg, planOpts{
			reduceGAT:   !ab.NoGATReduction,
			sortCommons: !ab.NoCommonSort,
		})
		if err != nil {
			return nil, err
		}
		changed := false
		if !ab.NoAddressOpt && applyAddressOptsEx(pg, pl, true, !ab.NoPairInsertion) {
			changed = true
		}
		if !ab.NoCallOpt && applyCallOpts(pg, pl, true) {
			changed = true
		}
		if !ab.NoResetOpt && applyGPResetOpts(pg, pl, true) {
			changed = true
		}
		if !ab.NoPrologueDelete && applyPrologueOpts(pg, pl) {
			changed = true
		}
		if !changed {
			break
		}
		if round > 20 {
			break // defensive bound; the pass set is monotone
		}
	}
	return pl, nil
}
