package om

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/obs"
)

// This file builds the decision journal: one event per address load, call
// site, and GP-reset pair, explaining the site's final disposition with a
// stable reason code. The journal is built after the passes reach their
// fixpoint by classifying every site against the final layout plan — the
// same plan the (no-change) last pass round saw — so the replayed guard
// conditions are exactly the ones that decided each site's fate, and the
// walk trivially accounts for 100% of candidate sites.

// Reason codes. These strings are a stable interface: downstream tooling
// (omtrace, omdump -stats, CI checks) matches on them, and a golden test
// pins them. Extend the list; never rename existing codes.
const (
	// Address loads (cat "addr").
	ReasonAddrConvertedLDA   = "addr:converted-lda"
	ReasonAddrConvertedLDAH  = "addr:converted-ldah"
	ReasonAddrNullified      = "addr:nullified-gp-direct"
	ReasonAddrNullifiedPV    = "addr:nullified-pv-dead"
	ReasonAddrKeptNoOpt      = "addr:kept:no-optimization"
	ReasonAddrKeptDisabled   = "addr:kept:pass-disabled"
	ReasonAddrKeptText       = "addr:kept:text-address"
	ReasonAddrKeptCrossReg   = "addr:kept:cross-region"
	ReasonAddrKeptNoAddr     = "addr:kept:no-address"
	ReasonAddrKeptOutOfRange = "addr:kept:out-of-gp-range"
	ReasonAddrKeptMixedUse   = "addr:kept:far-mixed-use"
	ReasonAddrKeptDispOvfl   = "addr:kept:far-disp-overflow"
	ReasonAddrKeptOther      = "addr:kept:other"

	// Call sites (cat "call").
	ReasonCallDirect          = "call:already-direct"
	ReasonCallConverted       = "call:converted-bsr"
	ReasonCallConvertedSkip   = "call:converted-bsr-entry-skip"
	ReasonCallConvertedNoProl = "call:converted-bsr-no-prologue"
	ReasonCallKeptNoOpt       = "call:kept:no-optimization"
	ReasonCallKeptDisabled    = "call:kept:pass-disabled"
	ReasonCallKeptIndirect    = "call:kept:indirect-call"
	ReasonCallKeptUnknown     = "call:kept:unknown-callee"
	ReasonCallKeptCrossReg    = "call:kept:cross-region"
	ReasonCallKeptLayout      = "call:kept:layout-range"
	ReasonCallKeptOther       = "call:kept:other"

	// GP-reset pairs (cat "gpreset").
	ReasonResetRemoved      = "gpreset:removed-same-gat"
	ReasonResetKeptNoOpt    = "gpreset:kept:no-optimization"
	ReasonResetKeptDisabled = "gpreset:kept:pass-disabled"
	ReasonResetKeptUnknown  = "gpreset:kept:unknown-callee"
	ReasonResetKeptDiffGAT  = "gpreset:kept:different-gat"
	ReasonResetKeptOther    = "gpreset:kept:other"

	// Profile-guided layout placements (cat "layout", WithProfile runs
	// only): one event per procedure, so the 100%-accounting guarantee
	// extends to the layout pass.
	ReasonLayoutChain    = "layout:placed-hot-chain"
	ReasonLayoutHot      = "layout:placed-hot"
	ReasonLayoutCold     = "layout:kept:cold"
	ReasonLayoutFallback = "layout:fallback-jsr-range"
)

// JournalReasons lists every reason code, grouped by category, in a fixed
// order (the golden test and the omtrace legend iterate it).
func JournalReasons() []string {
	return []string{
		ReasonAddrConvertedLDA, ReasonAddrConvertedLDAH,
		ReasonAddrNullified, ReasonAddrNullifiedPV,
		ReasonAddrKeptNoOpt, ReasonAddrKeptDisabled, ReasonAddrKeptText,
		ReasonAddrKeptCrossReg, ReasonAddrKeptNoAddr, ReasonAddrKeptOutOfRange,
		ReasonAddrKeptMixedUse, ReasonAddrKeptDispOvfl, ReasonAddrKeptOther,
		ReasonCallDirect, ReasonCallConverted, ReasonCallConvertedSkip,
		ReasonCallConvertedNoProl, ReasonCallKeptNoOpt, ReasonCallKeptDisabled,
		ReasonCallKeptIndirect, ReasonCallKeptUnknown, ReasonCallKeptCrossReg,
		ReasonCallKeptLayout, ReasonCallKeptOther,
		ReasonResetRemoved, ReasonResetKeptNoOpt, ReasonResetKeptDisabled,
		ReasonResetKeptUnknown, ReasonResetKeptDiffGAT, ReasonResetKeptOther,
		ReasonLayoutChain, ReasonLayoutHot, ReasonLayoutCold, ReasonLayoutFallback,
	}
}

// buildJournal walks the post-pass program and emits one event per
// candidate site. Totals come from the already-collected Stats so the
// journal is checkable against the figures it explains.
func buildJournal(pg *Prog, pl *Plan, cfg config, stats *Stats, lay *layoutResult) *obs.JournalDoc {
	d := &obs.JournalDoc{
		Schema: obs.JournalSchema,
		Level:  cfg.level.String(),
		Totals: map[string]uint64{
			"addr":    uint64(stats.AddressLoads),
			"call":    uint64(stats.CallSites),
			"gpreset": uint64(stats.GPResetBefore),
		},
	}
	if lay != nil {
		// Layout accounts for every procedure, not every instruction site.
		d.Totals["layout"] = uint64(len(pg.Procs))
	}

	// PV literals: address loads whose job was materializing a callee
	// address for a jsr. A nullified one died because its call was
	// converted, not because its uses went GP-relative.
	pvLits := make(map[*SInst]bool)
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.PVLit() != nil {
				pvLits[si.PVLit()] = true
			}
		}
	}

	for _, pr := range pg.Procs {
		for i, si := range pr.Insts {
			if si.Lit != nil {
				d.Events = append(d.Events, obs.Event{
					Cat: "addr", Proc: pr.Name, Index: i,
					Target: keyName(si.Lit.Key),
					Reason: classifyAddr(pg, pl, cfg, pr, si, pvLits),
					Detail: addrDetail(pl, pr, si),
				})
			}
			if isCallSite(si) {
				d.Events = append(d.Events, obs.Event{
					Cat: "call", Proc: pr.Name, Index: i,
					Target: callTarget(pg, si),
					Reason: classifyCall(pg, pl, cfg, pr, si, lay),
				})
			}
			if si.GPD() != nil && si.GPD().High && !si.GPD().Entry {
				// Record the callee when it is known: the translation
				// validator checks an elided reset's callee shares the
				// caller's GP (and a kept different-gat one does not).
				target := ""
				if callee := resetCallee(pg, si.GPD().AfterCall); callee != nil {
					target = callee.Name
				}
				d.Events = append(d.Events, obs.Event{
					Cat: "gpreset", Proc: pr.Name, Index: i,
					Target: target,
					Reason: classifyReset(pg, pl, cfg, pr, si),
				})
			}
		}
	}
	if lay != nil {
		for pos, dec := range lay.decisions {
			d.Events = append(d.Events, obs.Event{
				Cat: "layout", Proc: dec.proc.Name, Index: pos,
				Reason: dec.reason, Detail: dec.detail,
			})
		}
	}
	d.Counts = d.Recount()
	return d
}

func keyName(k link.TargetKey) string {
	if k.Addend != 0 {
		return fmt.Sprintf("%s%+d", k.Name, k.Addend)
	}
	return k.Name
}

// classifyAddr explains an address load's final state by replaying the
// address-optimization guards against the final plan.
func classifyAddr(pg *Prog, pl *Plan, cfg config, pr *Proc, si *SInst, pvLits map[*SInst]bool) string {
	lit := si.Lit
	switch {
	case lit.Nullified && pvLits[si]:
		return ReasonAddrNullifiedPV
	case lit.Nullified:
		return ReasonAddrNullified
	case lit.Converted:
		if si.GPRel() != nil && si.GPRel().Kind == GPRelLDAH {
			return ReasonAddrConvertedLDAH
		}
		return ReasonAddrConvertedLDA
	}
	// Kept: still a GAT load. Why?
	if cfg.level == LevelNone {
		return ReasonAddrKeptNoOpt
	}
	if cfg.level == LevelFull && cfg.ablation.NoAddressOpt {
		return ReasonAddrKeptDisabled
	}
	key := lit.Key
	if pl.IsTextKey(key) {
		return ReasonAddrKeptText
	}
	if pl.KeyRegion(key) != pl.regionOf(pr.Mod) {
		return ReasonAddrKeptCrossReg
	}
	addr, err := pl.AddrOfKey(key)
	if err != nil {
		return ReasonAddrKeptNoAddr
	}
	delta := int64(addr) - int64(pl.GPOf(pr))
	if _, _, err := link.SplitGPDisp(delta); err != nil {
		return ReasonAddrKeptOutOfRange
	}
	// Within 32-bit reach: OM-full with pair insertion would have converted
	// it, so the load survived a replace-only level (or the pair-insertion
	// ablation) that could not rewrite its particular use pattern.
	allBase := len(lit.Uses) > 0
	for _, u := range lit.Uses {
		if u.Use == nil || u.Use.JSR || u.Deleted {
			allBase = false
		}
	}
	if !allBase {
		return ReasonAddrKeptMixedUse
	}
	if !fits16(delta) {
		if _, lo, err := link.SplitGPDisp(delta); err == nil {
			for _, u := range lit.Uses {
				if !fits16(int64(lo) + int64(u.In.Disp)) {
					return ReasonAddrKeptDispOvfl
				}
			}
		}
	} else {
		for _, u := range lit.Uses {
			if !fits16(delta + int64(u.In.Disp)) {
				return ReasonAddrKeptDispOvfl
			}
		}
	}
	return ReasonAddrKeptOther
}

// addrDetail renders the GP distance of a kept load (empty otherwise).
func addrDetail(pl *Plan, pr *Proc, si *SInst) string {
	if si.Lit.Converted || si.Lit.Nullified {
		return ""
	}
	addr, err := pl.AddrOfKey(si.Lit.Key)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("gp%+#x", int64(addr)-int64(pl.GPOf(pr)))
}

func callTarget(pg *Prog, si *SInst) string {
	switch {
	case si.Call() != nil:
		return si.Call().Target.Name
	case si.Use != nil && si.Use.JSR:
		return keyName(si.Use.Lit.Lit.Key)
	}
	return ""
}

// classifyCall explains a call site's final state.
func classifyCall(pg *Prog, pl *Plan, cfg config, pr *Proc, si *SInst, lay *layoutResult) string {
	if si.Indirect {
		return ReasonCallKeptIndirect
	}
	if lay != nil && lay.reverted[si] {
		return ReasonCallKeptLayout
	}
	if si.Call() != nil {
		switch {
		case !si.Call().FromJSR:
			return ReasonCallDirect
		case si.Call().EntryOffset == 8:
			return ReasonCallConvertedSkip
		case si.Call().Target.PrologueDeleted:
			return ReasonCallConvertedNoProl
		}
		return ReasonCallConverted
	}
	// Still a GAT-indirect jsr.
	if cfg.level == LevelNone {
		return ReasonCallKeptNoOpt
	}
	if cfg.level == LevelFull && cfg.ablation.NoCallOpt {
		return ReasonCallKeptDisabled
	}
	if si.Use == nil || !si.Use.JSR {
		return ReasonCallKeptOther
	}
	callee := pg.ProcFor(si.Use.Lit.Lit.Key)
	if callee == nil {
		return ReasonCallKeptUnknown
	}
	if pl.regionOf(pr.Mod) != pl.regionOf(callee.Mod) {
		return ReasonCallKeptCrossReg
	}
	return ReasonCallKeptOther
}

// classifyReset explains a GP-reset pair's final state. Pre-pass every
// lifted pair is a live ldah/lda, so a deleted or no-op'd high half means
// the reset optimization removed it.
func classifyReset(pg *Prog, pl *Plan, cfg config, pr *Proc, si *SInst) string {
	if si.Deleted || si.In.IsNop() {
		return ReasonResetRemoved
	}
	if cfg.level == LevelNone {
		return ReasonResetKeptNoOpt
	}
	if cfg.level == LevelFull && cfg.ablation.NoResetOpt {
		return ReasonResetKeptDisabled
	}
	if len(pl.gat.Slots) > 1 {
		callee := resetCallee(pg, si.GPD().AfterCall)
		if callee == nil {
			return ReasonResetKeptUnknown
		}
		if !pl.SameGAT(pr, callee) {
			return ReasonResetKeptDiffGAT
		}
	}
	return ReasonResetKeptOther
}
