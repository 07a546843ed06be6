// Package core implements the paper's contribution: the PIMnet multi-tier
// interconnect. It models the three network tiers (inter-bank ring,
// inter-chip crossbar, inter-rank bus), compiles collective requests into
// statically scheduled, contention-checked transfer plans (Table V), and
// generates the per-bank addresses and timing offsets of the paper's
// Algorithm 1. The executor charges every transfer against the shared
// tier resources, producing the latency breakdowns the evaluation reports.
package core

import "fmt"

// NodeID is a flat DPU index within one memory channel:
// ((rank*chips)+chip)*banks + bank.
type NodeID int

// Coord locates a PIM bank in the packaging hierarchy.
type Coord struct {
	Rank, Chip, Bank int
}

// Topology is the packaging hierarchy of one memory channel.
type Topology struct {
	Ranks, Chips, Banks int
}

// Nodes returns the DPU count.
func (t Topology) Nodes() int { return t.Ranks * t.Chips * t.Banks }

// Valid reports whether all dimensions are positive.
func (t Topology) Valid() bool { return t.Ranks >= 1 && t.Chips >= 1 && t.Banks >= 1 }

// ID maps a coordinate to its flat node index.
func (t Topology) ID(c Coord) NodeID {
	if c.Rank < 0 || c.Rank >= t.Ranks || c.Chip < 0 || c.Chip >= t.Chips ||
		c.Bank < 0 || c.Bank >= t.Banks {
		panic(fmt.Sprintf("core: coordinate %+v outside topology %+v", c, t))
	}
	return NodeID((c.Rank*t.Chips+c.Chip)*t.Banks + c.Bank)
}

// Coord maps a flat node index to its coordinate.
func (t Topology) Coord(id NodeID) Coord {
	n := int(id)
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("core: node %d outside topology %+v", n, t))
	}
	return Coord{
		Rank: n / (t.Chips * t.Banks),
		Chip: (n / t.Banks) % t.Chips,
		Bank: n % t.Banks,
	}
}

// SameChip reports whether two nodes share a DRAM chip.
func (t Topology) SameChip(a, b NodeID) bool {
	ca, cb := t.Coord(a), t.Coord(b)
	return ca.Rank == cb.Rank && ca.Chip == cb.Chip
}

// SameRank reports whether two nodes share a rank (DIMM).
func (t Topology) SameRank(a, b NodeID) bool {
	return t.Coord(a).Rank == t.Coord(b).Rank
}

// String renders the topology as "RxCxB".
func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d", t.Ranks, t.Chips, t.Banks)
}

// links returns the size of a network's link arena: one ring segment per
// bank, one DQ send and one DQ receive channel per chip, and the bus.
func (t Topology) links() int { return t.Ranks*t.Chips*(t.Banks+2) + 1 }

// slot maps a ref to its link-arena index. The arena stores the ring
// segments ([rank][chip][bank]), then the DQ send channels ([rank][chip]),
// then the DQ receive channels, then the bus. The ref must be inside the
// topology (see contains).
func (t Topology) slot(ref LinkRef) int {
	rc := int(ref.Rank)*t.Chips + int(ref.Chip)
	switch ref.Role {
	case RefRing:
		return rc*t.Banks + int(ref.Index)
	case RefChipSend:
		return t.Ranks*t.Chips*t.Banks + rc
	case RefChipRecv:
		return t.Ranks*t.Chips*(t.Banks+1) + rc
	default:
		return t.Ranks * t.Chips * (t.Banks + 2)
	}
}

// contains reports whether ref names a link of this topology, with every
// coordinate its role does not use set to zero.
func (t Topology) contains(ref LinkRef) bool {
	inChip := ref.Rank >= 0 && int(ref.Rank) < t.Ranks && ref.Chip >= 0 && int(ref.Chip) < t.Chips
	switch ref.Role {
	case RefRing:
		return inChip && ref.Index >= 0 && int(ref.Index) < t.Banks
	case RefChipSend, RefChipRecv:
		return inChip && ref.Index == 0
	case RefBus:
		return ref.Rank == 0 && ref.Chip == 0 && ref.Index == 0
	default:
		return false
	}
}
