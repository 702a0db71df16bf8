package om

// cloneProg deep-copies a symbolic program so one lifted (or transformed)
// form can serve many Runs. The underlying link.Program is shared read-only;
// everything the passes mutate — procedures, instructions, and their
// annotation records — is copied, with every intra-program pointer remapped
// onto the copy. The clone is what makes the warm path sound: a memoized
// form is never handed to a caller directly, so no Run can corrupt it.
func cloneProg(pg *Prog) *Prog {
	out := &Prog{
		P:         pg.P,
		Procs:     make([]*Proc, len(pg.Procs)),
		procByDef: make(map[[2]int32]*Proc, len(pg.Procs)),
		nOrd:      pg.nOrd,
		par:       pg.par,
	}
	procMap := make(map[*Proc]*Proc, len(pg.Procs))
	for i, pr := range pg.Procs {
		np := &Proc{
			Mod:             pr.Mod,
			Sym:             pr.Sym,
			Name:            pr.Name,
			Exported:        pr.Exported,
			nextLabel:       pr.nextLabel,
			DataAddrTaken:   pr.DataAddrTaken,
			PrologueDeleted: pr.PrologueDeleted,
			PairAtEntry:     pr.PairAtEntry,
		}
		np.Insts = make([]*SInst, len(pr.Insts))
		backing := make([]SInst, len(pr.Insts))
		nnotes := 0
		for _, si := range pr.Insts {
			if si.note != nil {
				nnotes++
			}
		}
		notes := make([]instNote, nnotes)
		m := make(map[*SInst]*SInst, len(pr.Insts))
		for j, si := range pr.Insts {
			ns := &backing[j]
			*ns = *si
			if si.note != nil {
				// Labels are shared: every writer rebinds the field or
				// appends into a fresh backing array, never into a shared
				// one (emission carries its label moves in scratch, not on
				// the instruction).
				notes[0] = *si.note
				ns.note, notes = &notes[0], notes[1:]
			}
			np.Insts[j] = ns
			m[si] = ns
		}
		// Remap the intra-procedure pointer graph. Every annotation that can
		// point at an instruction points within its own procedure; only
		// Call.Target crosses procedures (second pass below). A nil key maps
		// to nil, so optional links need no guards.
		for j, si := range pr.Insts {
			ns := np.Insts[j]
			if si.Lit != nil {
				nl := *si.Lit
				if si.Lit.Uses != nil {
					nl.Uses = make([]*SInst, len(si.Lit.Uses))
					for k, u := range si.Lit.Uses {
						nl.Uses[k] = m[u]
					}
				}
				ns.Lit = &nl
			}
			if si.Use != nil {
				nu := *si.Use
				nu.Lit = m[si.Use.Lit]
				ns.Use = &nu
			}
			if nn := ns.note; nn != nil {
				if nn.gpd != nil {
					ng := *nn.gpd
					ng.Partner = m[ng.Partner]
					ng.AfterCall = m[ng.AfterCall]
					nn.gpd = &ng
				}
				if nn.gprel != nil {
					ng := *nn.gprel
					ng.HighPart = m[ng.HighPart]
					nn.gprel = &ng
				}
				if nn.call != nil {
					nc := *nn.call
					nn.call = &nc
				}
				nn.pvLit = m[nn.pvLit]
			}
		}
		out.Procs[i] = np
		procMap[pr] = np
		out.procByDef[[2]int32{int32(pr.Mod), pr.Sym}] = np
	}
	for _, np := range out.Procs {
		for _, si := range np.Insts {
			if si.Call() != nil {
				si.Call().Target = procMap[si.Call().Target]
			}
		}
	}
	return out
}

// progFootprint estimates a symbolic program's resident size for the memo
// stores' byte bounds: the instruction records dominate, with a flat
// allowance per instruction for its annotation records.
func progFootprint(pg *Prog) int64 {
	var n int64
	for _, pr := range pg.Procs {
		n += int64(len(pr.Insts))*192 + 128
	}
	return n
}
