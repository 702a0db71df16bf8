package link

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/objfile"
)

// SparseHole is the smallest zero gap between two initialized runs of a
// data region that ends a segment: the gap becomes that segment's ZeroSize
// and the next run starts a new segment. Smaller gaps are stored inline.
const SparseHole = 4096

// DataPlacement is where a laid-out program's data lives: the standard
// link and OM place it differently, but both fill it the same way.
type DataPlacement struct {
	// GAT holds each table's slots and region; GATStart[g] is the address
	// of table g's first slot.
	GAT      *GATPlan
	GATStart []uint64
	// SecBase[m][sec] is the address of module m's section sec.
	SecBase [][objfile.NumSections]uint64
	// End[r] is the first address past region r's data, bss included
	// (r is 0 for the static region, 1 for the shared one).
	End [2]uint64
}

var (
	dataBases = [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	dataNames = [2]string{".data", ".data.so"}
)

// DataSegments builds the data segments of both regions under dp. Only the
// initialized runs are materialized: each GAT, and each module's .sdata and
// .data. Runs closer than SparseHole share a segment, with the gap stored
// as zeros; a wider gap, and the zero-filled extent after the last run,
// become the ZeroSize of the segment before it. The segments of a region
// cover it contiguously from its base, so every address and every loaded
// byte is what one dense blob would hold, and each region's initialized
// bytes come from one exact-size slab. addrOf resolves a GAT slot or a
// data relocation to its final address.
func (p *Program) DataSegments(dp *DataPlacement, addrOf func(TargetKey) (uint64, error)) ([2][]objfile.Segment, error) {
	var regions [2]dataRegion
	for r := range regions {
		regions[r] = dataRegion{base: dataBases[r], end: dp.End[r]}
	}
	for g, slots := range dp.GAT.Slots {
		r := 0
		if dp.GAT.GATShared[g] {
			r = 1
		}
		regions[r].add(dp.GATStart[g], uint64(len(slots))*8)
	}
	for m, obj := range p.Objects {
		for _, sec := range []objfile.SectionKind{objfile.SecSData, objfile.SecData} {
			regions[regionOf(p, m)].add(dp.SecBase[m][sec], obj.Sections[sec].Size)
		}
	}
	for r := range regions {
		regions[r].build(dataNames[r])
	}
	put := func(addr, v uint64) error {
		r := 0
		if addr >= objfile.SharedDataBase {
			r = 1
		}
		b, err := regions[r].at(addr, 8)
		if err != nil {
			return err
		}
		objfile.PutUint64(b, 0, v)
		return nil
	}
	for g, slots := range dp.GAT.Slots {
		for i, k := range slots {
			a, err := addrOf(k)
			if err != nil {
				return [2][]objfile.Segment{}, err
			}
			if err := put(dp.GATStart[g]+uint64(i*8), a); err != nil {
				return [2][]objfile.Segment{}, err
			}
		}
	}
	for m, obj := range p.Objects {
		r := regionOf(p, m)
		for _, sec := range []objfile.SectionKind{objfile.SecSData, objfile.SecData} {
			if data := obj.Sections[sec].Data; len(data) > 0 {
				b, err := regions[r].at(dp.SecBase[m][sec], uint64(len(data)))
				if err != nil {
					return [2][]objfile.Segment{}, err
				}
				copy(b, data)
			}
		}
		for _, rel := range obj.Relocs {
			if rel.Kind != objfile.RRefQuad || rel.Section == objfile.SecLita {
				continue
			}
			a, err := addrOf(Key(p.Resolve(m, rel.Symbol), rel.Addend))
			if err != nil {
				return [2][]objfile.Segment{}, err
			}
			if err := put(dp.SecBase[m][rel.Section]+rel.Offset, a); err != nil {
				return [2][]objfile.Segment{}, fmt.Errorf("link: %s: %w", obj.Name, err)
			}
		}
	}
	return [2][]objfile.Segment{regions[0].segs, regions[1].segs}, nil
}

// dataRegion assembles one region's sparse segments.
type dataRegion struct {
	base, end uint64
	runs      [][2]uint64 // [start, end) of each initialized run
	segs      []objfile.Segment
}

func (d *dataRegion) add(start, size uint64) {
	if size > 0 {
		d.runs = append(d.runs, [2]uint64{start, start + size})
	}
}

// build groups the runs into segments and carves their Data from one slab.
func (d *dataRegion) build(name string) {
	slices.SortFunc(d.runs, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	// Each span is a segment's [addr, init) initialized extent; the first
	// starts at the region base even when a wide hole follows it.
	type span struct{ addr, init uint64 }
	spans := []span{{d.base, d.base}}
	total := uint64(0)
	for _, r := range d.runs {
		cur := &spans[len(spans)-1]
		if r[0]-cur.init >= SparseHole {
			total += cur.init - cur.addr
			spans = append(spans, span{r[0], r[0]})
			cur = &spans[len(spans)-1]
		}
		cur.init = max(cur.init, (r[1]+7)&^7)
	}
	last := spans[len(spans)-1]
	total += last.init - last.addr
	slab := make([]byte, total)
	d.segs = make([]objfile.Segment, len(spans))
	for i, s := range spans {
		n := s.init - s.addr
		next := d.end
		if i+1 < len(spans) {
			next = spans[i+1].addr
		}
		d.segs[i] = objfile.Segment{Name: name, Addr: s.addr, Data: slab[:n:n], ZeroSize: next - s.init}
		slab = slab[n:]
	}
}

// at returns the initialized bytes from addr on, which must hold n of them.
func (d *dataRegion) at(addr, n uint64) ([]byte, error) {
	for i := range d.segs {
		s := &d.segs[i]
		if addr >= s.Addr && addr+n <= s.Addr+uint64(len(s.Data)) {
			return s.Data[addr-s.Addr:], nil
		}
	}
	return nil, fmt.Errorf("link: %d bytes at %#x are not initialized data", n, addr)
}
