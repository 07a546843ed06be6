package core

import (
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/sim"
)

// This file implements the paper's Algorithm 1: "AllReduce scheduling &
// addressing algorithm". Because PIMnet never involves the host during
// communication, every PIM bank must know, before the collective starts,
// (a) the WRAM address its next send reads from and (b) the timing offset
// at which each phase of the schedule begins. Both are pure functions of
// the hierarchy shape, the bank's coordinates, the payload size, and the
// per-phase durations — all known at compile time — so the CPU produces
// them during kernel compilation and the DPUs simply follow the script.

// Domain selects the hierarchy level being scheduled.
type Domain int

// Hierarchy domains of Algorithm 1.
const (
	DomainBank Domain = iota
	DomainChip
	DomainRank
)

// String returns the domain name.
func (d Domain) String() string {
	switch d {
	case DomainBank:
		return "bank"
	case DomainChip:
		return "chip"
	case DomainRank:
		return "rank"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// PhaseKind selects the AllReduce half being scheduled.
type PhaseKind int

// AllReduce phases: reduce-scatter then all-gather.
const (
	PhaseRS PhaseKind = iota
	PhaseAG
)

// String returns the phase name.
func (p PhaseKind) String() string {
	if p == PhaseRS {
		return "RS"
	}
	return "AG"
}

// PhaseTimes carries the pre-computed duration of every phase of the
// hierarchical AllReduce — Algorithm 1's T_{RS_B} ... T_{AG_B} inputs.
type PhaseTimes struct {
	RSBank, RSChip, RSRank sim.Time
	AGRank, AGChip, AGBank sim.Time
}

// AddrParams are the static inputs of Algorithm 1 for one PIM bank.
type AddrParams struct {
	Banks, Chips, Ranks int   // N_B, N_C, N_R
	Bank, Chip, Rank    int   // I_B, I_C, I_R
	DataBytes           int64 // D
	BaseAddr            int64 // Addr_B: base WRAM address of the payload
	Times               PhaseTimes
}

// Schedule is Algorithm 1's output for one (domain, phase) pair: when the
// bank may start that phase relative to the collective's START signal, and
// the local address of the first chunk it sends.
type Schedule struct {
	Offset    sim.Time
	StartAddr int64
}

// ScheduleAllReduce evaluates Algorithm 1. The paper's pseudocode spells
// out the bank domain; the chip and rank domains follow the identical
// pattern one hierarchy level up, with the sub-chunk geometry produced by
// the preceding level's reduce-scatter.
func ScheduleAllReduce(domain Domain, phase PhaseKind, p AddrParams) (Schedule, error) {
	if err := p.validate(); err != nil {
		return Schedule{}, err
	}
	T := p.Times
	bankChunk := p.DataBytes / int64(p.Banks)
	chipChunk := bankChunk / int64(max(p.Chips, 1))
	switch domain {
	case DomainBank:
		if phase == PhaseRS {
			// offset = 0; Addr_s = Addr_B + D/N_B * I_B
			return Schedule{Offset: 0, StartAddr: p.BaseAddr + bankChunk*int64(p.Bank)}, nil
		}
		// offset = T_RS_B + T_RS_C + T_RS_R + T_AG_R + T_AG_C
		// Addr_s = Addr_B + D/N_B * ((I_B + N_B - 1) % N_B)
		off := T.RSBank + T.RSChip + T.RSRank + T.AGRank + T.AGChip
		chunk := (p.Bank + p.Banks - 1) % p.Banks
		return Schedule{Offset: off, StartAddr: p.BaseAddr + bankChunk*int64(chunk)}, nil
	case DomainChip:
		// The chip domain operates within the bank-chunk this bank owns
		// after the bank-level reduce-scatter.
		ownedBase := p.BaseAddr + bankChunk*int64(collective.OwnedAfterRS(p.Banks, p.Bank))
		if phase == PhaseRS {
			return Schedule{
				Offset:    T.RSBank,
				StartAddr: ownedBase + chipChunk*int64(p.Chip),
			}, nil
		}
		off := T.RSBank + T.RSChip + T.RSRank + T.AGRank
		chunk := (p.Chip + p.Chips - 1) % p.Chips
		return Schedule{Offset: off, StartAddr: ownedBase + chipChunk*int64(chunk)}, nil
	case DomainRank:
		// The rank domain broadcasts the sub-chunk owned after the chip
		// level; the bus schedule serializes ranks in index order.
		ownedBase := p.BaseAddr + bankChunk*int64(collective.OwnedAfterRS(p.Banks, p.Bank)) +
			chipChunk*int64(collective.OwnedAfterRS(p.Chips, p.Chip))
		if phase == PhaseRS {
			return Schedule{Offset: T.RSBank + T.RSChip, StartAddr: ownedBase}, nil
		}
		return Schedule{Offset: T.RSBank + T.RSChip + T.RSRank, StartAddr: ownedBase}, nil
	default:
		return Schedule{}, fmt.Errorf("core: unknown domain %v", domain)
	}
}

func (p AddrParams) validate() error {
	switch {
	case p.Banks < 1 || p.Chips < 1 || p.Ranks < 1:
		return fmt.Errorf("core: addrgen hierarchy %dx%dx%d invalid", p.Ranks, p.Chips, p.Banks)
	case p.Bank < 0 || p.Bank >= p.Banks:
		return fmt.Errorf("core: addrgen I_B=%d out of [0,%d)", p.Bank, p.Banks)
	case p.Chip < 0 || p.Chip >= p.Chips:
		return fmt.Errorf("core: addrgen I_C=%d out of [0,%d)", p.Chip, p.Chips)
	case p.Rank < 0 || p.Rank >= p.Ranks:
		return fmt.Errorf("core: addrgen I_R=%d out of [0,%d)", p.Rank, p.Ranks)
	case p.DataBytes < 0:
		return fmt.Errorf("core: addrgen negative payload")
	}
	return nil
}

// AllToAllSendAddrs generates, for one node, the send address of every
// destination block of a personalized all-to-all (Fig. 9b): Addr_j is the
// WRAM offset of the block bound for node j. The count is proportional to
// the number of participants, exactly as the paper notes.
func AllToAllSendAddrs(base, dataBytes int64, nodes int) []int64 {
	addrs := make([]int64, nodes)
	for j := 0; j < nodes; j++ {
		lo, _ := collective.ChunkBounds(int(dataBytes), nodes, j)
		addrs[j] = base + int64(lo)
	}
	return addrs
}

// PhaseTimesFromPlan extracts Algorithm 1's phase-duration inputs from a
// compiled AllReduce plan by executing it on n and reading each phase's
// duration by name. Plans compiled for degenerate shapes (single chip or
// rank) report zero for the missing phases, and a plan that does not run
// on n reports all zeros.
func PhaseTimesFromPlan(n *Network, p *Plan) PhaseTimes {
	var t PhaseTimes
	_, durs, _, err := n.executePhases(p, execOptions{})
	if err != nil {
		return t
	}
	for i, ph := range p.Phases {
		d := durs[i]
		switch ph.Name {
		case "bank-RS":
			t.RSBank = d
		case "chip-RS":
			t.RSChip = d
		case "rank-bcast-reduce":
			t.RSRank = d
			t.AGRank = 0 // the bus broadcast doubles as the gather hop
		case "chip-AG":
			t.AGChip = d
		case "bank-AG":
			t.AGBank = d
		}
	}
	return t
}
