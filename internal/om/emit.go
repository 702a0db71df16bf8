package om

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
)

// Emission is fully read-only on the Prog: label moves, scheduling orders,
// and final addresses live in pooled scratch (emitScratch) rather than on
// the instructions. That property is what lets the warm path emit straight
// from a memoized snapshot that concurrent Runs share — no defensive clone,
// no races.

// normalizeLabels appends the procedure's live instructions to sc.live
// and, to sc.labs, the label set addressing each of them: labels on deleted
// instructions move onto the next live one. The procedure itself is never
// modified.
func (sc *emitScratch) normalizeLabels(pr *Proc) error {
	var pending []int
	for _, si := range pr.Insts {
		if si.Deleted {
			pending = append(pending, si.Labels()...)
			continue
		}
		l := si.Labels()
		if len(pending) > 0 {
			l = append(pending, si.Labels()...)
			pending = nil
		}
		sc.live = append(sc.live, si)
		sc.labs = append(sc.labs, l)
	}
	if len(pending) > 0 {
		return fmt.Errorf("om: %s: labels %v dangle past the last instruction", pr.Name, pending)
	}
	return nil
}

// reschedule list-schedules each basic block of the procedure occupying
// sc.live[from:] in place, using the same latency model as the
// compile-time scheduler. A GP-setup pair at procedure entry is pinned
// there: callers may be branching to entry+8 to skip it. Only a block's
// first instruction can carry labels — a labeled instruction starts a new
// block — and they keep addressing the block's first slot, so sc.labs
// does not change.
func (sc *emitScratch) reschedule(from int) {
	live, labs := sc.live[from:], sc.labs[from:]
	start := 0
	if len(live) >= 2 &&
		live[0].GPD() != nil && live[0].GPD().High && live[0].GPD().Entry &&
		live[1].GPD() != nil && live[1] == live[0].GPD().Partner {
		start = 2
	}
	flush := func(end int) {
		if end-start > 1 {
			seg := live[start:end]
			sc.raw = sc.raw[:0]
			for _, si := range seg {
				sc.raw = append(sc.raw, si.In)
			}
			sc.order = sc.sched.Order(sc.raw, sc.order)
			sc.tmpLive = append(sc.tmpLive[:0], seg...)
			for pos, idx := range sc.order {
				seg[pos] = sc.tmpLive[idx]
			}
		}
		start = end
	}
	for i := start; i < len(live); i++ {
		in := live[i].In
		if len(labs[i]) > 0 {
			flush(i)
		}
		if in.Op.IsBranch() || in.Op.IsJump() || in.Op == axp.CALLPAL {
			flush(i)
			start = i + 1
		}
	}
	flush(len(live))
}

// alignPad is the unop alignLoopTargets inserts. Emission only reads
// instructions, so every insertion shares it; its ord of -1 keeps it out
// of the address scratch.
var alignPad = SInst{In: axp.Unop(), Target: -1, ord: -1}

// alignLoopTargets inserts unops into the procedure occupying sc.live[from:]
// so that instructions targeted by backward branches start on a quadword
// boundary (procedure bases are quadword aligned). This is the OM-full
// alignment pass that helps the dual-issue fetcher.
func (sc *emitScratch) alignLoopTargets(from int) {
	live, labs := sc.live[from:], sc.labs[from:]
	// Identify labels targeted by a later (backward) branch.
	nlab := 0
	for i := range labs {
		for _, l := range labs[i] {
			nlab = max(nlab, l+1)
		}
	}
	if nlab == 0 {
		return
	}
	sc.labelIdx = slices.Grow(sc.labelIdx[:0], nlab)[:nlab]
	sc.backward = slices.Grow(sc.backward[:0], nlab)[:nlab]
	clear(sc.backward)
	for l := range sc.labelIdx {
		sc.labelIdx[l] = -1
	}
	for i := range labs {
		for _, l := range labs[i] {
			sc.labelIdx[l] = i
		}
	}
	found := false
	for i, si := range live {
		if t := si.Target; t >= 0 && t < nlab {
			if ti := sc.labelIdx[t]; ti >= 0 && ti <= i {
				sc.backward[t] = true
				found = true
			}
		}
	}
	if !found {
		return
	}
	sc.tmpLive = append(sc.tmpLive[:0], live...)
	sc.tmpLabs = append(sc.tmpLabs[:0], labs...)
	sc.live, sc.labs = sc.live[:from], sc.labs[:from]
	off := 0
	for i, si := range sc.tmpLive {
		isTarget := false
		for _, l := range sc.tmpLabs[i] {
			if sc.backward[l] {
				isTarget = true
			}
		}
		if isTarget && off%8 != 0 {
			sc.live = append(sc.live, &alignPad)
			sc.labs = append(sc.labs, nil)
			off += 4
		}
		sc.live = append(sc.live, si)
		sc.labs = append(sc.labs, sc.tmpLabs[i])
		off += 4
	}
}

// emitScratch holds Emit's reusable working storage, pooled so a resident
// daemon's warm relinks and a run of cold links do not reallocate it per
// job.
type emitScratch struct {
	// live holds every procedure's final instruction list, back to back,
	// and labs the label set addressing each of those instructions; span[i]
	// is procedure i's [start, end) range in both.
	live []*SInst
	labs [][]int
	span [][2]int
	// Working storage of reschedule and alignLoopTargets.
	tmpLive  []*SInst
	tmpLabs  [][]int
	raw      []axp.Inst
	order    []int
	sched    axp.Scheduler
	labelIdx []int
	backward []bool
	// addrs maps an instruction's ordinal (SInst.ord) to its final text
	// address for this emission. 0 means "not part of the current emission"
	// (all text bases are nonzero), which is how a GP reset anchored to a
	// removed call is detected.
	addrs []uint64
	// procAddr holds this emission's finalized procedure addresses — the
	// refinement of the plan's estimates after label normalization,
	// scheduling, and alignment padding. Keeping it here (not on the plan)
	// is what lets one plan serve concurrent emissions.
	procAddr map[*Proc]uint64
	// gaps are the alignment-padding word addresses between procedures —
	// the only text words the encode loop does not write, filled with
	// unops instead of prefilling the whole region.
	gaps      []uint64
	labelAddr map[int]uint64
}

var emitScratchPool = sync.Pool{
	New: func() any {
		return &emitScratch{
			procAddr:  make(map[*Proc]uint64, 64),
			labelAddr: make(map[int]uint64, 64),
		}
	},
}

// release drops instruction and label references (so the pool never pins a
// program) while keeping every backing array's capacity, and returns the
// scratch to the pool.
func (sc *emitScratch) release() {
	clear(sc.live[:cap(sc.live)])
	clear(sc.labs[:cap(sc.labs)])
	clear(sc.tmpLive[:cap(sc.tmpLive)])
	clear(sc.tmpLabs[:cap(sc.tmpLabs)])
	sc.live, sc.labs, sc.span = sc.live[:0], sc.labs[:0], sc.span[:0]
	clear(sc.procAddr)
	clear(sc.labelAddr)
	sc.gaps = sc.gaps[:0]
	emitScratchPool.Put(sc)
}

// Emit regenerates an executable image from the symbolic program under the
// given plan. When sched is true the OM-full rescheduler and loop-alignment
// passes run first. Emission never writes to the program: a renumbered Prog
// (Run renumbers before every emission) can be emitted concurrently by any
// number of goroutines.
func Emit(pg *Prog, pl *Plan, sched bool) (*objfile.Image, error) {
	p := pg.P
	if pg.nOrd == 0 {
		// Direct API callers may emit a program Run never renumbered.
		pg.renumber()
	}
	sc := emitScratchPool.Get().(*emitScratch)
	defer sc.release()
	if cap(sc.addrs) < pg.nOrd {
		sc.addrs = make([]uint64, pg.nOrd)
	}
	addrs := sc.addrs[:pg.nOrd]
	clear(addrs)

	// Finalize instruction lists and procedure addresses, per region.
	procAddr := sc.procAddr
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for _, pr := range pg.Procs {
		from := len(sc.live)
		if err := sc.normalizeLabels(pr); err != nil {
			return nil, err
		}
		if sched {
			sc.reschedule(from)
			sc.alignLoopTargets(from)
		}
		sc.span = append(sc.span, [2]int{from, len(sc.live)})
		r := pl.regionOf(pr.Mod)
		for tcur[r]%8 != 0 {
			sc.gaps = append(sc.gaps, tcur[r])
			tcur[r] += 4
		}
		procAddr[pr] = tcur[r]
		for _, si := range sc.live[from:] {
			if si.ord >= 0 {
				addrs[si.ord] = tcur[r]
			}
			tcur[r] += 4
		}
	}

	// Encode into per-region text blobs.
	textBases := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	texts := [2][]byte{
		make([]byte, tcur[0]-objfile.TextBase),
		make([]byte, tcur[1]-objfile.SharedTextBase),
	}
	putWord := func(addr uint64, w uint32) {
		r := 0
		if addr >= objfile.SharedTextBase {
			r = 1
		}
		objfile.PutUint32(texts[r], addr-textBases[r], w)
	}
	// Every text word belongs to exactly one live instruction except the
	// alignment padding between procedures; the encode loop below writes
	// the former, so only the recorded gaps need unops.
	unop := axp.MustEncode(axp.Unop())
	for _, a := range sc.gaps {
		putWord(a, unop)
	}
	labelAddr := sc.labelAddr
	for pi, pr := range pg.Procs {
		gp := int64(pl.GPOf(pr))
		gatIdx := pl.GPGroup(pr)
		live := sc.live[sc.span[pi][0]:sc.span[pi][1]]
		labs := sc.labs[sc.span[pi][0]:sc.span[pi][1]]
		base := procAddr[pr]
		clear(labelAddr)
		for i := range live {
			for _, l := range labs[i] {
				labelAddr[l] = base + 4*uint64(i)
			}
		}
		for idx, si := range live {
			in := si.In
			addr := base + 4*uint64(idx)
			switch {
			case si.GPRel() != nil:
				d, err := gprelDisp(pl, si, gp, procAddr)
				if err != nil {
					return nil, fmt.Errorf("om: %s at %#x: %w", pr.Name, addr, err)
				}
				in.Disp = d
			case si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified:
				slotAddr, ok := pl.SlotAddr(gatIdx, si.Lit.Key)
				if !ok {
					return nil, fmt.Errorf("om: %s: GAT slot for %v vanished", pr.Name, si.Lit.Key)
				}
				d := int64(slotAddr) - gp
				if !fits16(d) {
					return nil, fmt.Errorf("om: %s: GAT slot beyond GP reach", pr.Name)
				}
				in.Disp = int32(d)
			case si.GPD() != nil && !in.IsNop():
				if si.GPD().High {
					anchor, err := gpdAnchor(pr, si, addrs, procAddr)
					if err != nil {
						return nil, err
					}
					hi, lo, err := link.SplitGPDisp(gp - int64(anchor))
					if err != nil {
						return nil, fmt.Errorf("om: %s: %w", pr.Name, err)
					}
					in.Disp = int32(hi)
					// Stash the low half for the partner via the map trick:
					// partner is processed on its own; recompute there.
					_ = lo
				} else {
					// Low half: recompute from the paired high.
					hiInst := si.GPD().Partner
					anchor, err := gpdAnchor(pr, hiInst, addrs, procAddr)
					if err != nil {
						return nil, err
					}
					_, lo, err := link.SplitGPDisp(gp - int64(anchor))
					if err != nil {
						return nil, fmt.Errorf("om: %s: %w", pr.Name, err)
					}
					in.Disp = int32(lo)
				}
			}
			if si.Call() != nil && !si.Deleted {
				target := procAddr[si.Call().Target] + si.Call().EntryOffset
				d, ok := axp.BranchDispTo(addr, target)
				if !ok {
					return nil, fmt.Errorf("om: %s: call at %#x cannot reach %s+%d",
						pr.Name, addr, si.Call().Target.Name, si.Call().EntryOffset)
				}
				in.Disp = d
			} else if si.Target >= 0 {
				ta, ok := labelAddr[si.Target]
				if !ok {
					return nil, fmt.Errorf("om: %s: missing label %d", pr.Name, si.Target)
				}
				d, ok := axp.BranchDispTo(addr, ta)
				if !ok {
					return nil, fmt.Errorf("om: %s: branch out of range", pr.Name)
				}
				in.Disp = d
			}
			w, err := axp.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("om: %s at %#x: encode %v: %w", pr.Name, addr, in, err)
			}
			putWord(addr, w)
		}
	}

	// Sparse data segments under the plan's placement, per region. OM's
	// placement puts the sorted commons, some of them large, between the
	// GATs and the initialized small data, so one zero tail per region
	// would still materialize them; link.DataSegments stores only the
	// initialized runs and carries every wide hole as a zero tail.
	dataSegs, err := p.DataSegments(&link.DataPlacement{
		GAT: pl.gat, GATStart: pl.gatStart, SecBase: pl.secBase, End: pl.dataEnd,
	}, func(k link.TargetKey) (uint64, error) { return pl.addrOfKeyAt(k, procAddr) })
	if err != nil {
		return nil, err
	}

	// Image assembly.
	var entryAddr uint64
	found := false
	for _, pr := range pg.Procs {
		if pr.Name == p.EntryName && pr.Exported {
			entryAddr = procAddr[pr]
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("om: entry symbol %s not found", p.EntryName)
	}
	im := &objfile.Image{
		Entry: entryAddr,
		Segments: append([]objfile.Segment{
			{Name: ".text", Addr: objfile.TextBase, Data: texts[0]},
		}, dataSegs[0]...),
	}
	if len(texts[1]) > 0 || pl.dataEnd[1] > objfile.SharedDataBase {
		im.Segments = append(im.Segments,
			objfile.Segment{Name: ".text.so", Addr: objfile.SharedTextBase, Data: texts[1]})
		im.Segments = append(im.Segments, dataSegs[1]...)
	}
	for pi, pr := range pg.Procs {
		im.Symbols = append(im.Symbols, objfile.ImageSymbol{
			Name: pr.Name, Addr: procAddr[pr],
			Size: uint64(sc.span[pi][1]-sc.span[pi][0]) * 4, Kind: objfile.SymProc,
			GP: pl.GPOf(pr),
		})
	}
	for m, obj := range p.Objects {
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			if sym.Kind != objfile.SymData {
				continue
			}
			im.Symbols = append(im.Symbols, objfile.ImageSymbol{
				Name: sym.Name, Addr: pl.secBase[m][sym.Section] + sym.Value,
				Size: sym.Size, Kind: objfile.SymData,
			})
		}
	}
	for _, c := range p.Commons {
		im.Symbols = append(im.Symbols, objfile.ImageSymbol{
			Name: c.Name, Addr: pl.commonAddr[c.Name], Size: c.Size, Kind: objfile.SymData,
		})
	}
	for g := range pl.gat.Slots {
		im.GATs = append(im.GATs, objfile.GATRange{
			Start: pl.gatStart[g],
			End:   pl.gatStart[g] + uint64(len(pl.gat.Slots[g]))*8,
			GP:    pl.gp[g],
		})
	}
	im.SortSymbols()
	if err := im.Validate(); err != nil {
		return nil, fmt.Errorf("om: %w", err)
	}
	return im, nil
}

// gprelDisp computes the final displacement of a GP-relative rewrite.
func gprelDisp(pl *Plan, si *SInst, gp int64, procAddr map[*Proc]uint64) (int32, error) {
	g := si.GPRel()
	addr, err := pl.addrOfKeyAt(g.Key, procAddr)
	if err != nil {
		return 0, err
	}
	delta := int64(addr) - gp
	switch g.Kind {
	case GPRelLDA, GPRelUseDirect:
		d := delta + g.Extra
		if !fits16(d) {
			return 0, fmt.Errorf("GP-relative displacement %d no longer fits", d)
		}
		return int32(d), nil
	case GPRelLDAH:
		hi, _, err := link.SplitGPDisp(delta)
		if err != nil {
			return 0, err
		}
		return int32(hi), nil
	case GPRelUseLow:
		haddr, err := pl.addrOfKeyAt(g.HighPart.GPRel().Key, procAddr)
		if err != nil {
			return 0, err
		}
		_, lo, err := link.SplitGPDisp(int64(haddr) - gp)
		if err != nil {
			return 0, err
		}
		d := int64(lo) + g.Extra
		if !fits16(d) {
			return 0, fmt.Errorf("low-part displacement %d no longer fits", d)
		}
		return int32(d), nil
	}
	return 0, fmt.Errorf("unknown GP-relative kind %d", g.Kind)
}

// gpdAnchor computes the address held in the base register of a GP pair,
// reading the emission's ordinal-indexed address scratch.
func gpdAnchor(pr *Proc, hi *SInst, addrs []uint64, procAddr map[*Proc]uint64) (uint64, error) {
	if hi.GPD().Entry {
		return procAddr[pr], nil
	}
	call := hi.GPD().AfterCall
	if call == nil || call.ord < 0 || int(call.ord) >= len(addrs) || addrs[call.ord] == 0 {
		return 0, fmt.Errorf("om: %s: GP reset anchored to a removed call", pr.Name)
	}
	return addrs[call.ord] + 4, nil
}
