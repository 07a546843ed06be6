package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"pimnet/internal/collective"
	"pimnet/internal/metrics"
)

// Tier identifies which PIMnet tier a phase runs on.
type Tier int

// Tiers in packaging order.
const (
	TierBank Tier = iota
	TierChip
	TierRank
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierBank:
		return "inter-bank"
	case TierChip:
		return "inter-chip"
	case TierRank:
		return "inter-rank"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Component maps a tier to its breakdown component.
func (t Tier) Component() metrics.Component {
	switch t {
	case TierBank:
		return metrics.InterBank
	case TierChip:
		return metrics.InterChip
	case TierRank:
		return metrics.InterRank
	default:
		panic(fmt.Sprintf("core: unknown tier %d", int(t)))
	}
}

// Kind classifies a resource for contention checking.
type Kind uint8

// Resource kinds. Ring segments may be time-multiplexed within a step (the
// static schedule serializes flows deliberately, e.g. the all-to-all shift
// steps); crossbar ports and the bus must carry at most one transfer per
// step — that is the hardware property that lets PIMnet omit buffers and
// arbitration.
const (
	KindRing Kind = iota
	KindCrossbarPort
	KindBus
)

// LinkRole classifies which resource class of a Network a LinkRef names.
type LinkRole uint8

// Link roles, in the order the network's link arena stores them.
const (
	RefRing     LinkRole = iota // bank -> bank+1 ring segment of (rank, chip)
	RefChipSend                 // chip -> crossbar DQ channel of (rank, chip)
	RefChipRecv                 // crossbar -> chip DQ channel of (rank, chip)
	RefBus                      // the shared multi-drop DDR bus
)

// LinkRef names one network resource by its physical coordinate, so a
// compiled schedule is independent of any particular Network instance and
// runs on every network of its topology. Index is the bank for ring
// segments; it and, for the bus, Rank and Chip are zero otherwise. The
// int32 coordinates and the byte-sized Kind keep a Transfer at 32 bytes.
type LinkRef struct {
	Role              LinkRole
	Rank, Chip, Index int32
}

// String renders the resource's diagnostic name, e.g. "ring[r0,c1,b2]".
func (r LinkRef) String() string {
	switch r.Role {
	case RefRing:
		return fmt.Sprintf("ring[r%d,c%d,b%d]", r.Rank, r.Chip, r.Index)
	case RefChipSend:
		return fmt.Sprintf("dq-send[r%d,c%d]", r.Rank, r.Chip)
	case RefChipRecv:
		return fmt.Sprintf("dq-recv[r%d,c%d]", r.Rank, r.Chip)
	case RefBus:
		return "ddr-bus"
	default:
		return fmt.Sprintf("LinkRole(%d)", r.Role)
	}
}

// Transfer is one scheduled link reservation.
type Transfer struct {
	Ref  LinkRef
	Kind Kind
	// Dead marks a transfer whose compiled route traverses a hard-failed
	// resource (a stuck crossbar pairing): the data never arrives, and the
	// executor models it as a transfer that never completes so the phase
	// timeout guard can catch it. Dead transfers still occupy their port in
	// the contention check — the hardware does drive the channel. Only
	// plans compiled on faulted networks carry them; such plans are never
	// cached or persisted, so Dead is in neither the JSON form nor Digest.
	Dead  bool `json:"-"`
	Bytes int64
}

// Step is a synchronized communication step: all transfers start together
// once the previous step has fully completed (lock-step static schedule).
type Step struct {
	Transfers []Transfer
	// ReduceBytesPerNode is the volume each receiving DPU combines into its
	// local buffer during this step (zero for non-reducing patterns). The
	// DPU streams the reduction concurrently with reception, so a step
	// lasts max(transfer, reduce).
	ReduceBytesPerNode int64
}

// Phase is a sequence of steps on one tier. A pipelined phase releases all
// steps together and lets the shared resources serialize them in schedule
// order (the buffer chip streams the next pair's data off the DQ pins while
// the bus carries the current pair); a non-pipelined phase is lock-step.
type Phase struct {
	Name      string
	Tier      Tier
	Pipelined bool
	Steps     []Step
}

// Plan is a fully compiled, statically scheduled collective: the
// network-independent artifact the host uploads to the control units
// (Fig. 5c/d). Every constructor (PlanFor, FlatRingPlan, PlanForDegraded,
// DecodeBlueprint) validates the plan before returning it, and nothing
// writes to a plan afterwards: the plan cache shares one instance across
// every network and goroutine that replays it.
type Plan struct {
	Req  collective.Request
	Topo Topology
	// MemBytes is the MRAM<->WRAM DMA staging volume per DPU charged when
	// the payload exceeds the WRAM communication buffer (the paper's "Mem"
	// overhead).
	MemBytes int64
	Phases   []Phase
}

// Blueprint is the name the plan cache, the codec and the persistent store
// use for a Plan: the cacheable, digestible compiled artifact.
type Blueprint = Plan

// TierBytes sums scheduled bytes on one tier.
func (p *Plan) TierBytes(t Tier) int64 {
	var total int64
	for _, ph := range p.Phases {
		if ph.Tier != t {
			continue
		}
		for _, st := range ph.Steps {
			for _, tr := range st.Transfers {
				total += tr.Bytes
			}
		}
	}
	return total
}

// Validate is the check every plan passes before anything executes it:
// every phase names a known tier, every transfer moves a non-negative
// volume over a link inside the plan's topology, and within any single step
// every crossbar port and the bus appear in at most one transfer (the
// static-schedule property that lets the bufferless hardware omit
// arbitration). A contention violation in a compiled plan is always a
// compiler bug; the other checks guard plans that arrive as bytes.
func (p *Plan) Validate() error {
	t := p.Topo
	if !t.Valid() {
		return fmt.Errorf("core: plan topology %v invalid", t)
	}
	// seen counts the current step's transfers on each link; stamp (the
	// running step number) marks which step a count belongs to, so one map
	// serves every step. It is keyed by ref rather than arena slot so a
	// forged plan's topology size cannot force a large allocation.
	type use struct{ stamp, n int32 }
	seen := make(map[LinkRef]use)
	stamp := int32(0)
	for pi, ph := range p.Phases {
		if ph.Tier < TierBank || ph.Tier > TierRank {
			return fmt.Errorf("core: phase %d (%s): unknown tier %d", pi, ph.Name, int(ph.Tier))
		}
		for si, st := range ph.Steps {
			stamp++
			for _, tr := range st.Transfers {
				if tr.Bytes < 0 {
					return fmt.Errorf("core: phase %d (%s) step %d: negative transfer", pi, ph.Name, si)
				}
				if !t.contains(tr.Ref) {
					return fmt.Errorf("core: phase %d (%s) step %d: ref %+v outside topology %v",
						pi, ph.Name, si, tr.Ref, t)
				}
				u := seen[tr.Ref]
				if u.stamp != stamp {
					u = use{stamp: stamp}
				}
				u.n++
				seen[tr.Ref] = u
				if tr.Kind != KindRing && u.n > 1 {
					return fmt.Errorf("core: phase %d (%s) step %d: %s scheduled %d times in one step",
						pi, ph.Name, si, tr.Ref, u.n)
				}
			}
		}
	}
	return nil
}

// Digest returns a hex SHA-256 over the canonical binary encoding of the
// plan — the identity of the compiled artifact. The golden-trace corpus
// pins these digests; any change to the compiler's output changes them and
// must be an intentional, reviewed regeneration.
func (p *Plan) Digest() string {
	h := sha256.New()
	w := func(vs ...int64) {
		for _, v := range vs {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	w(int64(p.Req.Pattern), int64(p.Req.Op), p.Req.BytesPerNode,
		int64(p.Req.ElemSize), int64(p.Req.Nodes), int64(p.Req.Root))
	w(int64(p.Topo.Ranks), int64(p.Topo.Chips), int64(p.Topo.Banks), p.MemBytes)
	w(int64(len(p.Phases)))
	for _, ph := range p.Phases {
		w(int64(len(ph.Name)))
		h.Write([]byte(ph.Name))
		pipe := int64(0)
		if ph.Pipelined {
			pipe = 1
		}
		w(int64(ph.Tier), pipe, int64(len(ph.Steps)))
		for _, st := range ph.Steps {
			w(st.ReduceBytesPerNode, int64(len(st.Transfers)))
			for _, tr := range st.Transfers {
				w(int64(tr.Ref.Role), int64(tr.Ref.Rank), int64(tr.Ref.Chip),
					int64(tr.Ref.Index), int64(tr.Kind), tr.Bytes)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
