package om

import (
	"fmt"

	"repro/internal/axp"
	"repro/internal/profile"
)

// BlockInfo names one instrumented basic block.
type BlockInfo struct {
	ID    uint32
	Proc  string
	Index int // block ordinal within the procedure
	// Calls names the known callees of the block's call sites (direct calls
	// and GAT-indirect jsr with a resolvable target; calls through procedure
	// variables are omitted). With the block's execution count this yields
	// call-edge weights for profile-guided layout.
	Calls []string
}

// Instrument inserts a profiling trap at the entry of every basic block —
// the ATOM-style application of OM's machinery the paper points to ("OM
// lets us work with a symbolic form... flexible program instrumentation
// tools"). Each trap carries the block id; the simulator counts executions
// without disturbing any architectural state.
//
// Instrumentation runs on the lifted (unoptimized) form, like pixie on a
// final binary: call it after Lift and emit with LevelNone.
func Instrument(pg *Prog) ([]BlockInfo, error) {
	var blocks []BlockInfo
	nextID := uint32(0)
	for _, pr := range pg.Procs {
		idx := 0
		trap := func() *SInst {
			if nextID > axp.PalProfileIDMask {
				return nil
			}
			si := &SInst{In: axp.Pal(axp.PalProfileFlag | nextID), Target: -1}
			blocks = append(blocks, BlockInfo{ID: nextID, Proc: pr.Name, Index: idx})
			nextID++
			idx++
			return si
		}

		var out []*SInst
		// Entry block: if the prologue GP pair is pinned at entry (local
		// entry points target entry+8), count after the pair so skipped
		// entries are still observed.
		insts := pr.Insts
		start := 0
		if len(insts) >= 2 &&
			insts[0].GPD() != nil && insts[0].GPD().High && insts[0].GPD().Entry &&
			insts[1].GPD() != nil && insts[1] == insts[0].GPD().Partner {
			out = append(out, insts[0], insts[1])
			start = 2
		}
		tr := trap()
		if tr == nil {
			return nil, fmt.Errorf("om: instrument: more than %d blocks", axp.PalProfileIDMask)
		}
		out = append(out, tr)

		prevEndsBlock := false
		for i := start; i < len(insts); i++ {
			si := insts[i]
			leader := prevEndsBlock || len(si.Labels()) > 0
			if leader {
				tr := trap()
				if tr == nil {
					return nil, fmt.Errorf("om: instrument: more than %d blocks", axp.PalProfileIDMask)
				}
				// Branch targets must hit the counter: move the labels.
				tr.SetLabels(si.Labels())
				si.SetLabels(nil)
				out = append(out, tr)
			}
			out = append(out, si)
			if si.In.Op == axp.JSR || si.In.Op == axp.BSR {
				if callee := resetCallee(pg, si); callee != nil {
					cur := &blocks[len(blocks)-1]
					cur.Calls = append(cur.Calls, callee.Name)
				}
			}
			prevEndsBlock = si.In.Op.IsBranch() || si.In.Op.IsJump() || si.In.Op == axp.CALLPAL
		}
		pr.Insts = out
	}
	return blocks, nil
}

// TrapBlocks converts the instrumentation block table into the profile
// package's source-neutral form, for profile.FromTraps.
func TrapBlocks(blocks []BlockInfo) []profile.TrapBlock {
	out := make([]profile.TrapBlock, len(blocks))
	for i, b := range blocks {
		out[i] = profile.TrapBlock{Proc: b.Proc, Index: b.Index, Calls: b.Calls}
	}
	return out
}
