package core

import (
	"fmt"
	"strings"

	"pimnet/internal/collective"
)

// Describe renders the compiled schedule in a human-readable form: the
// artifact the host would upload to the control units (Fig. 5c/d). It lists
// every phase with its tier, step count, per-step transfer count, and byte
// volume, plus the staging requirement.
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %v on %v (%d DPUs)\n", p.Req, p.Topo, p.Topo.Nodes())
	if p.MemBytes > 0 {
		fmt.Fprintf(&sb, "  MRAM<->WRAM staging: %d bytes per DPU\n", p.MemBytes)
	}
	for i, ph := range p.Phases {
		var bytes int64
		var transfers int
		for _, st := range ph.Steps {
			transfers += len(st.Transfers)
			for _, tr := range st.Transfers {
				bytes += tr.Bytes
			}
		}
		mode := "lock-step"
		if ph.Pipelined {
			mode = "pipelined"
		}
		fmt.Fprintf(&sb, "  phase %d %-18s tier=%-10s steps=%-4d transfers=%-6d bytes=%-10d %s\n",
			i, ph.Name, ph.Tier, len(ph.Steps), transfers, bytes, mode)
	}
	return sb.String()
}

// VolumeSummary aggregates scheduled bytes per tier — the quantity the
// analytic checks compare against closed-form collective volumes.
type VolumeSummary struct {
	Bank, Chip, Rank int64
}

// Volumes returns the per-tier scheduled byte volumes. Chip counts only the
// crossbar send ports (receive ports mirror them); Rank counts bus bytes.
func (p *Plan) Volumes() VolumeSummary {
	var v VolumeSummary
	for _, ph := range p.Phases {
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				switch {
				case tr.Kind == KindBus:
					v.Rank += tr.Bytes
				case tr.Kind == KindRing:
					v.Bank += tr.Bytes
				case tr.Ref.Role == RefChipSend:
					v.Chip += tr.Bytes
				}
			}
		}
	}
	return v
}

// ExpectedVolumes returns the closed-form per-tier byte volumes of the
// Table V schedules for the supported patterns, used to cross-check the
// compiler. Formulas (D = payload per node, b/c/r = banks/chips/ranks,
// P = b*c*r):
//
//	AllReduce:     bank 2*P*D*(b-1)/b, chip 2*r*c*D*(c-1)/c, rank r*D
//	ReduceScatter: half the AllReduce bank/chip volumes, same rank volume
//	AllToAll:      rank P*D*(r-1)/r (bank/chip volumes depend on hop counts)
func ExpectedVolumes(topo Topology, req collective.Request) (VolumeSummary, bool) {
	D := req.BytesPerNode
	b, c, r := int64(topo.Banks), int64(topo.Chips), int64(topo.Ranks)
	P := b * c * r
	switch req.Pattern {
	case collective.AllReduce:
		v := VolumeSummary{}
		if b > 1 {
			// Exact chunk geometry: per-node ring traffic for RS then AG.
			v.Bank = 2 * P * collective.RSTrafficPerNode(D, int(b))
		}
		if c > 1 {
			// Each chip ships (c-1)/c of its banks' owned chunks, twice.
			var perChip int64
			for bank := 0; bank < int(b); bank++ {
				owned := chunkBytes(D, int(b), collective.OwnedAfterRS(int(b), bank))
				perChip += collective.RSTrafficPerNode(owned, int(c))
			}
			v.Chip = 2 * r * c * perChip
		}
		if r > 1 {
			v.Rank = r * D
		}
		return v, true
	case collective.ReduceScatter:
		full, _ := ExpectedVolumes(topo, collective.Request{
			Pattern: collective.AllReduce, Op: req.Op,
			BytesPerNode: D, ElemSize: req.ElemSize, Nodes: req.Nodes})
		return VolumeSummary{Bank: full.Bank / 2, Chip: full.Chip / 2, Rank: full.Rank}, true
	case collective.AllToAll:
		v := VolumeSummary{}
		if r > 1 {
			// Exact cross-rank volume from balanced destination blocks.
			var cross int64
			for dst := 0; dst < int(P); dst++ {
				blk := chunkBytes(D, int(P), dst)
				// Each destination block is sent by every node in a
				// different rank than the destination: (r-1)*b*c sources.
				cross += blk * (r - 1) * b * c
			}
			v.Rank = cross
		}
		return v, true
	default:
		return VolumeSummary{}, false
	}
}
