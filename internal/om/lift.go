// Package om implements the paper's contribution: the OM link-time
// code-modification system, specialized to address-calculation optimization
// on the Alpha AXP.
//
// OM translates the object code of the entire program into a symbolic form:
// procedures with label-based control flow and relocation-derived
// annotations (address loads, their uses, GP-establishing pairs, direct-call
// branches). It analyzes and transforms this form — at the OM-simple level
// by one-for-one instruction replacement, at the OM-full level with
// deletion, insertion, and reordering — and regenerates executable object
// code, recomputing every displacement and address constant from the
// symbolic form.
package om

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
)

// SInst is one instruction in OM's symbolic form. A program holds one per
// instruction, lifted into a slab per procedure on every cold link, so the
// fields every pass reads stay on the struct and the annotations few
// instructions carry — labels, GP pairs, direct calls, GP-relative
// rewrites and PV loads — live in a note reached through accessors.
type SInst struct {
	In axp.Inst

	// ord is the instruction's dense program-wide ordinal, assigned by
	// Prog.renumber. Emit indexes its pooled address scratch with it, which
	// keeps emission fully read-only on the program — the property that lets
	// concurrent Runs replay one memoized snapshot without cloning it.
	// Instructions Emit fabricates itself (alignment padding) carry -1.
	ord int32

	// Deleted marks instructions removed by OM-full; they are skipped at
	// emission. OM-simple instead overwrites In with a no-op.
	Deleted bool
	// Indirect marks a call through a procedure variable.
	Indirect bool

	// Target is the label a branch jumps to, or -1.
	Target int

	// Lit marks an address load from the GAT.
	Lit *LitInfo
	// Use links a memory access or jsr to its address load.
	Use *UseInfo

	note *instNote
}

// instNote holds an instruction's rarely set annotations; nil means none.
type instNote struct {
	labels []int
	gpd    *GPDInfo
	call   *CallInfo
	gprel  *GPRelInfo
	pvLit  *SInst
}

// noNote is what an instruction without a note reads. Nothing writes it:
// every write goes through edit, which gives the instruction its own note.
var noNote instNote

func (si *SInst) notes() *instNote {
	if si.note == nil {
		return &noNote
	}
	return si.note
}

// edit returns the instruction's note for writing, creating it.
func (si *SInst) edit() *instNote {
	if si.note == nil {
		si.note = &instNote{}
	}
	return si.note
}

// Labels are the intra-procedure labels attached to the instruction.
func (si *SInst) Labels() []int { return si.notes().labels }

// GPD marks half of a GP-establishing pair.
func (si *SInst) GPD() *GPDInfo { return si.notes().gpd }

// Call marks a direct call/branch to another procedure.
func (si *SInst) Call() *CallInfo { return si.notes().call }

// GPRel marks an instruction rewritten to address data GP-relatively; its
// displacement is recomputed from the final layout at emission.
func (si *SInst) GPRel() *GPRelInfo { return si.notes().gprel }

// PVLit records, for a direct jsr call site, the address load that
// materializes PV (for statistics after the Use link is dissolved).
func (si *SInst) PVLit() *SInst { return si.notes().pvLit }

// SetLabels replaces the instruction's labels.
func (si *SInst) SetLabels(l []int) {
	if l != nil || si.note != nil {
		si.edit().labels = l
	}
}

// SetCall sets the instruction's direct-call annotation.
func (si *SInst) SetCall(c *CallInfo) {
	if c != nil || si.note != nil {
		si.edit().call = c
	}
}

// SetGPRel sets the instruction's GP-relative rewrite.
func (si *SInst) SetGPRel(g *GPRelInfo) {
	if g != nil || si.note != nil {
		si.edit().gprel = g
	}
}

// LitInfo describes an address load: ldq rX, slot(gp).
type LitInfo struct {
	Key  link.TargetKey
	Uses []*SInst
	// Converted: the load became a load-address (lda or ldah) and no longer
	// references the GAT.
	Converted bool
	// Nullified: the load was no-op'd (simple) or deleted (full).
	Nullified bool
}

// UseInfo links an instruction to the address load feeding it.
type UseInfo struct {
	Lit *SInst
	JSR bool
}

// GPDInfo describes half of a GP-establishing ldah/lda pair.
type GPDInfo struct {
	Partner *SInst
	High    bool
	// Entry: the pair's base register holds the procedure entry address
	// (prologue, PV). Otherwise AfterCall holds the call whose return
	// address (RA) is the base.
	Entry     bool
	AfterCall *SInst
}

// CallInfo describes a direct call whose destination is a known procedure.
type CallInfo struct {
	Target *Proc
	// EntryOffset is the byte offset into the target (0 or 8 for the local
	// entry point past the GP-setup pair).
	EntryOffset uint64
	// FromJSR: the call was a GAT-indirect jsr that the call optimization
	// converted to this direct bsr (vs. a bsr the compiler emitted).
	FromJSR bool

	// origJSR and origPV snapshot the jsr and its PV-load instruction at
	// conversion time (FromJSR only), so the profile-guided layout pass can
	// revert the conversion when reordering pushes the callee beyond the
	// bsr's 21-bit displacement. origPV matters at OM-simple, where
	// nullification overwrites the load in place.
	origJSR axp.Inst
	origPV  axp.Inst
}

// GPRelKind distinguishes the GP-relative rewrite applied to an instruction.
type GPRelKind uint8

const (
	// GPRelLDA: the instruction computes key's address: lda r, delta(gp).
	GPRelLDA GPRelKind = iota
	// GPRelLDAH: the instruction computes the high part: ldah r, hi(gp).
	GPRelLDAH
	// GPRelUseDirect: a load/store rewritten to op r, delta+orig(gp).
	GPRelUseDirect
	// GPRelUseLow: a load/store rewritten against a GPRelLDAH base:
	// op r, lo+orig(base).
	GPRelUseLow
)

// GPRelInfo carries the symbolic GP-relative rewrite.
type GPRelInfo struct {
	Kind GPRelKind
	Key  link.TargetKey
	// Extra is the displacement added beyond the key's address (the
	// original use displacement).
	Extra int64
	// HighPart, for GPRelUseLow, is the ldah this use pairs with.
	HighPart *SInst
}

// Proc is one procedure in symbolic form.
type Proc struct {
	Mod      int
	Sym      int32
	Name     string
	Exported bool
	Insts    []*SInst

	nextLabel int

	// Analysis/transform state:
	// DataAddrTaken: the procedure's address appears in initialized data
	// (function-pointer tables); its full entry must stay intact.
	DataAddrTaken bool
	// PrologueDeleted: OM-full removed the GP-setup pair entirely.
	PrologueDeleted bool
	// PairAtEntry: the prologue GP pair occupies the first two slots.
	PairAtEntry bool
}

// NewLabel allocates a fresh intra-procedure label.
func (pr *Proc) NewLabel() int {
	l := pr.nextLabel
	pr.nextLabel++
	return l
}

// Live returns the non-deleted instructions.
func (pr *Proc) Live() []*SInst {
	live := make([]*SInst, 0, len(pr.Insts))
	for _, si := range pr.Insts {
		if !si.Deleted {
			live = append(live, si)
		}
	}
	return live
}

// Prog is the whole program in symbolic form.
type Prog struct {
	P     *link.Program
	Procs []*Proc
	// procByDef finds the Proc for a (module, symbol) definition.
	procByDef map[[2]int32]*Proc
	// nOrd is the ordinal count assigned by the last renumber (the size of
	// Emit's address scratch). 0 means the program was never renumbered.
	nOrd int
	// par bounds the goroutines used by per-procedure passes (see
	// forEachProc); 0 or 1 means serial.
	par int
}

// renumber assigns every instruction a dense program-wide ordinal. Run
// calls it after the last phase that can add instructions and before the
// program is published to the pass memo, so emission — including concurrent
// replays of a shared memoized snapshot — only ever reads the ordinals.
func (pg *Prog) renumber() {
	n := int32(0)
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			si.ord = n
			n++
		}
	}
	pg.nOrd = int(n)
}

// ProcFor resolves a target key to its procedure, if it names one.
func (pg *Prog) ProcFor(k link.TargetKey) *Proc {
	if k.Kind != link.TDef || k.Addend != 0 {
		return nil
	}
	return pg.procByDef[[2]int32{int32(k.Mod), k.Sym}]
}

// pendingCall is a direct call noted during module lifting, resolved once
// every procedure of every module exists.
type pendingCall struct {
	inst   *SInst
	target link.Target
	addend int64
}

// liftedModule is the result of lifting one module's text.
type liftedModule struct {
	procs   []*Proc
	pending []pendingCall
}

// Lift translates every procedure of the merged program into symbolic form.
func Lift(p *link.Program) (*Prog, error) {
	return lift(context.Background(), p, 1)
}

// lift is Lift with cancellation and bounded per-module parallelism.
// Modules are lifted independently and merged in module order, so the
// resulting Prog is identical for every parallelism setting.
func lift(ctx context.Context, p *link.Program, par int) (*Prog, error) {
	mods := make([]*liftedModule, len(p.Objects))
	errs := make([]error, len(p.Objects))
	if par > len(p.Objects) {
		par = len(p.Objects)
	}
	if par <= 1 {
		for m, obj := range p.Objects {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mods[m], errs[m] = liftModule(p, m, obj)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					m := int(next.Add(1) - 1)
					if m >= len(p.Objects) || ctx.Err() != nil {
						return
					}
					mods[m], errs[m] = liftModule(p, m, p.Objects[m])
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	pg := &Prog{P: p, procByDef: make(map[[2]int32]*Proc)}
	var pending []pendingCall
	for _, lm := range mods {
		for _, pr := range lm.procs {
			pg.Procs = append(pg.Procs, pr)
			pg.procByDef[[2]int32{int32(pr.Mod), pr.Sym}] = pr
		}
		pending = append(pending, lm.pending...)
	}

	// Resolve direct-call targets now that all procedures exist.
	for _, pc := range pending {
		if pc.target.Kind != link.TDef {
			return nil, fmt.Errorf("om: lift: call to non-procedure %s", pc.target.Name)
		}
		tp := pg.procByDef[[2]int32{int32(pc.target.Mod), pc.target.Sym}]
		if tp == nil {
			return nil, fmt.Errorf("om: lift: call to unknown procedure %s", pc.target.Name)
		}
		pc.inst.SetCall(&CallInfo{Target: tp, EntryOffset: uint64(pc.addend)})
	}

	// Data-section address-taken procedures (function-pointer tables in
	// initialized data).
	for m, obj := range p.Objects {
		for _, r := range obj.Relocs {
			if r.Kind != objfile.RRefQuad || r.Section == objfile.SecLita {
				continue
			}
			t := p.Resolve(m, r.Symbol)
			if t.Kind == link.TDef {
				if tp := pg.procByDef[[2]int32{int32(t.Mod), t.Sym}]; tp != nil {
					tp.DataAddrTaken = true
				}
			}
		}
	}
	return pg, nil
}

// liftModule decodes and annotates one module's procedures. It touches no
// program-wide state, so modules lift concurrently.
func liftModule(p *link.Program, m int, obj *objfile.Object) (*liftedModule, error) {
	lm := &liftedModule{}
	text := obj.Sections[objfile.SecText].Data
	if len(text)%axp.WordBytes != 0 {
		return nil, fmt.Errorf("om: lift %s: code length %d not a multiple of 4", obj.Name, len(text))
	}
	// Index relocations by offset. noted lists the offsets of instructions
	// a relocation gives a note, so each procedure can size its note slab.
	litAt := make(map[uint64]*objfile.Reloc)
	useAt := make(map[uint64]*objfile.Reloc)
	gpdAt := make(map[uint64]*objfile.Reloc)
	brAt := make(map[uint64]*objfile.Reloc)
	gprAt := make(map[uint64]*objfile.Reloc)
	var noted []uint64
	for i := range obj.Relocs {
		r := &obj.Relocs[i]
		if r.Section != objfile.SecText {
			continue
		}
		switch r.Kind {
		case objfile.RLiteral:
			litAt[r.Offset] = r
		case objfile.RLituseBase, objfile.RLituseJSR:
			useAt[r.Offset] = r
			if r.Kind == objfile.RLituseJSR {
				noted = append(noted, r.Offset)
			}
		case objfile.RGPDisp:
			gpdAt[r.Offset] = r
			noted = append(noted, r.Offset, r.Extra)
		case objfile.RBrAddr:
			brAt[r.Offset] = r
			noted = append(noted, r.Offset)
		case objfile.RGPRel16:
			gprAt[r.Offset] = r
			noted = append(noted, r.Offset)
		}
	}
	slices.Sort(noted)
	var labelOf []int // per instruction of the current procedure: its label, or -1

	// Procedures of this module in address order.
	var procSyms []int32
	for s := range obj.Symbols {
		if obj.Symbols[s].Kind == objfile.SymProc {
			procSyms = append(procSyms, int32(s))
		}
	}
	for i := 0; i < len(procSyms); i++ {
		for j := i + 1; j < len(procSyms); j++ {
			if obj.Symbols[procSyms[j]].Value < obj.Symbols[procSyms[i]].Value {
				procSyms[i], procSyms[j] = procSyms[j], procSyms[i]
			}
		}
	}

	covered := uint64(0)
	for _, s := range procSyms {
		sym := &obj.Symbols[s]
		if sym.Value != covered {
			return nil, fmt.Errorf("om: lift %s: gap before procedure %s (%#x..%#x)",
				obj.Name, sym.Name, covered, sym.Value)
		}
		covered = sym.End

		if sym.End < sym.Value || sym.End > uint64(len(text)) {
			return nil, fmt.Errorf("om: lift %s: procedure %s (%#x..%#x) outside the text",
				obj.Name, sym.Name, sym.Value, sym.End)
		}

		pr := &Proc{Mod: m, Sym: s, Name: sym.Name, Exported: sym.Exported}
		base := sym.Value
		n := int((sym.End - sym.Value) / 4)
		// One contiguous slab per procedure, decoded in place: emission
		// walks the instructions of resident memoized forms on every warm
		// relink, and the collector rescans them on every cycle, so
		// locality and object count matter more than in a one-shot link.
		pr.Insts = make([]*SInst, n)
		backing := make([]SInst, n)
		for i := 0; i < n; i++ {
			off := base + uint64(i*4)
			in, err := axp.Decode(objfile.Uint32At(text, off))
			if err != nil {
				return nil, fmt.Errorf("om: lift %s: at offset %#x: %w", obj.Name, off, err)
			}
			backing[i] = SInst{In: in, Target: -1}
			pr.Insts[i] = &backing[i]
		}

		// Pass 1: labels for intra-procedure branch targets.
		labelOf = slices.Grow(labelOf[:0], n)[:n]
		for i := range labelOf {
			labelOf[i] = -1
		}
		nlabels := 0
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			if !si.In.Op.IsBranch() {
				continue
			}
			if _, isCall := brAt[off]; isCall {
				continue
			}
			targetOff := int64(off) + 4 + int64(si.In.Disp)*4
			ti := (targetOff - int64(base)) / 4
			if ti < 0 || ti >= int64(n) {
				return nil, fmt.Errorf("om: lift %s: %s branch at +%#x leaves the procedure",
					obj.Name, sym.Name, off-base)
			}
			l := labelOf[ti]
			if l < 0 {
				l = pr.NewLabel()
				labelOf[ti] = l
				nlabels++
			}
			si.Target = l
		}

		// Notes come from one slab per procedure, sized for every labeled
		// instruction and every relocation that annotates one.
		first, _ := slices.BinarySearch(noted, base)
		past, _ := slices.BinarySearch(noted, sym.End)
		notes := make([]instNote, nlabels+past-first)
		note := func(si *SInst) *instNote {
			if si.note == nil && len(notes) > 0 {
				si.note, notes = &notes[0], notes[1:]
			}
			return si.edit()
		}
		labels := make([]int, nlabels)
		for i, l := range labelOf {
			if l >= 0 {
				labels[0] = l
				note(pr.Insts[i]).labels = labels[:1:1]
				labels = labels[1:]
			}
		}

		// Pass 2: relocation annotations.
		sidxAt := func(off uint64) (*SInst, bool) {
			i := (int64(off) - int64(base)) / 4
			if i < 0 || i >= int64(n) {
				return nil, false
			}
			return pr.Insts[i], true
		}
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			if r, ok := litAt[off]; ok {
				si.Lit = &LitInfo{Key: link.Key(p.Resolve(m, r.Symbol), r.Addend)}
			}
			if r, ok := gprAt[off]; ok {
				// Optimistically compiled GP-relative reference: already
				// in OM's target form; re-anchor it to the final layout.
				note(si).gprel = &GPRelInfo{
					Kind:  GPRelUseDirect,
					Key:   link.Key(p.Resolve(m, r.Symbol), 0),
					Extra: r.Addend,
				}
			}
			if r, ok := useAt[off]; ok {
				lit, ok := sidxAt(r.Extra)
				if !ok || lit.Lit == nil {
					return nil, fmt.Errorf("om: lift %s: %s: LITUSE at +%#x has no literal at +%#x",
						obj.Name, sym.Name, off-base, r.Extra-base)
				}
				si.Use = &UseInfo{Lit: lit, JSR: r.Kind == objfile.RLituseJSR}
				lit.Lit.Uses = append(lit.Lit.Uses, si)
				if si.Use.JSR {
					note(si).pvLit = lit
				}
			}
			if si.In.Op == axp.JSR && si.Use == nil {
				si.Indirect = true
			}
			if r, ok := gpdAt[off]; ok {
				lo, ok := sidxAt(r.Extra)
				if !ok {
					return nil, fmt.Errorf("om: lift %s: %s: GPDISP pair escapes procedure", obj.Name, sym.Name)
				}
				hi := si
				anchor := uint64(r.Addend)
				g := &GPDInfo{Partner: lo, High: true}
				if anchor == base {
					g.Entry = true
				} else {
					call, ok := sidxAt(anchor - 4)
					if !ok || !(call.In.Op == axp.JSR || call.In.Op == axp.BSR) {
						return nil, fmt.Errorf("om: lift %s: %s: GPDISP anchor +%#x is not after a call",
							obj.Name, sym.Name, anchor-base)
					}
					g.AfterCall = call
				}
				note(hi).gpd = g
				note(lo).gpd = &GPDInfo{Partner: hi}
			}
			if r, ok := brAt[off]; ok {
				note(si) // lift sets the call once every procedure exists
				lm.pending = append(lm.pending, pendingCall{
					inst: si, target: p.Resolve(m, r.Symbol), addend: r.Addend,
				})
			}
		}
		lm.procs = append(lm.procs, pr)
	}
	if covered != obj.Sections[objfile.SecText].Size {
		return nil, fmt.Errorf("om: lift %s: %#x bytes of text not covered by procedures",
			obj.Name, obj.Sections[objfile.SecText].Size-covered)
	}
	return lm, nil
}
