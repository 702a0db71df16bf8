package axp

import "slices"

// OpLatency is the issue-to-use latency table of the modeled 21064-class
// pipeline, shared by the compile-time scheduler (internal/tcc) and OM's
// link-time rescheduler (internal/om).
func OpLatency(op Op) int {
	switch {
	case op.IsLoad():
		return 3
	case op == MULL || op == MULQ || op == UMULH:
		return 12
	case op == DIVT:
		return 30
	case op.Format() == FormatOpF:
		return 6
	}
	return 1
}

// ScheduleOrder list-schedules a straight-line block of instructions (no
// branches, no labels except at the start) and returns the new issue order
// as a permutation of indices. Dependences considered: register RAW/WAR/WAW
// in both files, and conservative memory ordering (stores are ordered with
// every other memory access; loads may reorder among themselves).
func ScheduleOrder(insts []Inst) []int {
	var s Scheduler
	return s.Order(insts, nil)
}

// Scheduler is ScheduleOrder with working storage that is kept from one
// block to the next, for callers that schedule many blocks. The zero value
// is ready to use; a Scheduler is not safe for concurrent use.
type Scheduler struct {
	nodes []schedNode
	// edges holds every dependence edge; each node's successors form a
	// list threaded through it from schedNode.succ.
	edges []schedEdge
}

type schedNode struct {
	reads, writes   uint64
	freads, fwrites uint64
	isMem, isStore  bool
	scheduled       bool
	lat             int
	succ            int32 // first edge, or -1
	npreds          int
	prio            int
	ready           int
}

type schedEdge struct {
	to, next int32
}

// Order schedules insts like ScheduleOrder and writes the permutation over
// order[:0], returning it.
func (s *Scheduler) Order(insts []Inst, order []int) []int {
	n := len(insts)
	order = order[:0]
	if n <= 1 {
		if n == 1 {
			order = append(order, 0)
		}
		return order
	}
	s.nodes = slices.Grow(s.nodes[:0], n)[:n]
	s.edges = s.edges[:0]
	nodes := s.nodes
	for i, in := range insts {
		reads, freads := in.ReadMasks()
		var writes, fwrites uint64
		if w := in.Writes(); w != Zero {
			writes |= 1 << w
		}
		if fw := in.WritesF(); fw != FZero {
			fwrites |= 1 << fw
		}
		nodes[i] = schedNode{
			reads: reads, writes: writes, freads: freads, fwrites: fwrites,
			isMem:   in.Op.IsMem(),
			isStore: in.Op.IsStore(),
			lat:     OpLatency(in.Op),
			succ:    -1,
		}
	}
	for j := 1; j < n; j++ {
		for i := j - 1; i >= 0; i-- {
			ni, nj := &nodes[i], &nodes[j]
			dep := ni.writes&nj.reads != 0 ||
				ni.reads&nj.writes != 0 ||
				ni.writes&nj.writes != 0 ||
				ni.fwrites&nj.freads != 0 ||
				ni.freads&nj.fwrites != 0 ||
				ni.fwrites&nj.fwrites != 0 ||
				(ni.isMem && nj.isMem && (ni.isStore || nj.isStore))
			if dep {
				s.edges = append(s.edges, schedEdge{to: int32(j), next: ni.succ})
				ni.succ = int32(len(s.edges) - 1)
				nj.npreds++
			}
		}
	}
	edges := s.edges
	for i := n - 1; i >= 0; i-- {
		p := nodes[i].lat
		for e := nodes[i].succ; e >= 0; e = edges[e].next {
			if q := nodes[i].lat + nodes[edges[e].to].prio; q > p {
				p = q
			}
		}
		nodes[i].prio = p
	}
	clock := 0
	for len(order) < n {
		best := -1
		minFuture := 1 << 30
		for i := 0; i < n; i++ {
			if nodes[i].scheduled || nodes[i].npreds > 0 {
				continue
			}
			if nodes[i].ready > clock {
				if nodes[i].ready < minFuture {
					minFuture = nodes[i].ready
				}
				continue
			}
			if best < 0 || nodes[i].prio > nodes[best].prio ||
				(nodes[i].prio == nodes[best].prio && i < best) {
				best = i
			}
		}
		if best < 0 {
			clock = minFuture
			continue
		}
		nodes[best].scheduled = true
		order = append(order, best)
		for e := nodes[best].succ; e >= 0; e = edges[e].next {
			sn := &nodes[edges[e].to]
			sn.npreds--
			if t := clock + nodes[best].lat; t > sn.ready {
				sn.ready = t
			}
		}
		clock++
	}
	return order
}
