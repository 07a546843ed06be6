package core

import (
	"fmt"

	"pimnet/internal/config"
	"pimnet/internal/faults"
	"pimnet/internal/sim"
	"pimnet/internal/trace"
)

// Network instantiates the PIMnet resources for one memory channel:
//
//   - per chip, one effective ring channel per bank hop (the four 16-bit
//     unidirectional bank-I/O channels give every hop 2x the per-channel
//     rate when a bidirectional ring algorithm streams both directions);
//   - per chip, one DQ send channel and one DQ receive channel into the
//     buffer-chip crossbar;
//   - one half-duplex DDR bus shared by all ranks.
//
// All resources are sim.Links; the static scheduler guarantees by
// construction (and the contention checker verifies) that crossbar and bus
// steps never overlap conflicting transfers, which is what lets the
// hardware omit buffers and arbitration.
type Network struct {
	Sys  config.System
	Topo Topology

	// links is the flat link arena, indexed by Topo.slot: every ring
	// segment, then the DQ send channels, the DQ receive channels, and the
	// bus. Plans name links by LinkRef, so one plan runs on any network of
	// its topology.
	links []sim.Link

	// stepOverheadPs is an optional fixed guard charged at every lock-step
	// boundary (ablation knob; see SetStepOverhead).
	stepOverheadPs int64

	// Fault state. deadPath records stuck crossbar pairings (the internal
	// mux from one chip's ingress to another's egress is wedged); chipOrder,
	// when non-nil, is the logical->physical chip remap the recompiler
	// installed to exclude those pairings from the configured ring.
	deadPath  map[chipPath]bool
	chipOrder []int

	// scratch is the executor's reusable working set (see execScratch in
	// exec.go). It follows the network's single-owner contract: one scratch
	// per network, never shared across sweep workers.
	scratch execScratch

	// Observability. tracer receives the executor's structured events;
	// traceLinks gates per-transfer KindLinkBusy emission (trace.LevelLink),
	// precomputed so the executor's inner loop tests one bool. util is the
	// attached utilization aggregator when the tracer contains one,
	// resolved once so report plumbing needs no type switches. All three
	// are nil/false when tracing is off — the hot paths then run the exact
	// pre-instrumentation instruction sequence plus predictable branches,
	// preserving the 0 allocs/op contract of BENCH_baseline.json.
	tracer     trace.Tracer
	traceLinks bool
	util       *trace.Util
}

// chipPath identifies one configured crossbar pairing within a rank.
type chipPath struct{ rank, src, dst int }

// NewNetwork builds the PIMnet resource graph for the configured channel.
func NewNetwork(sys config.System) (*Network, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	topo := Topology{Ranks: sys.Ranks, Chips: sys.ChipsPerRank, Banks: sys.BanksPerChip}
	n := &Network{Sys: sys, Topo: topo, links: make([]sim.Link, topo.links())}
	ring, send, recv, bus := n.classes()
	for i := range ring {
		ring[i] = sim.MakeLink(sys.BankRingBW(), sys.Net.BankHopLat)
	}
	for i := range send {
		send[i] = sim.MakeLink(sys.Net.ChipChannelBW, sys.Net.ChipHopLat+sys.Net.SwitchLat)
		recv[i] = sim.MakeLink(sys.Net.ChipChannelBW, sys.Net.ChipHopLat)
	}
	*bus = sim.MakeLink(sys.Net.RankBusBW, sys.Net.RankBusLat)
	return n, nil
}

// classes splits the link arena into its ring segments, DQ send channels,
// DQ receive channels and the bus.
func (n *Network) classes() (ring, send, recv []sim.Link, bus *sim.Link) {
	t := n.Topo
	rings, chips := t.Ranks*t.Chips*t.Banks, t.Ranks*t.Chips
	return n.links[:rings], n.links[rings : rings+chips], n.links[rings+chips : rings+2*chips],
		&n.links[rings+2*chips]
}

// link resolves a ref to its arena slot. The ref must be inside the
// network's topology; plans guarantee that by validating on construction.
func (n *Network) link(ref LinkRef) *sim.Link { return &n.links[n.Topo.slot(ref)] }

// Reset clears all reservations so the network can run another experiment.
func (n *Network) Reset() {
	for i := range n.links {
		n.links[i].Reset()
	}
}

// SetTracer attaches a structured execution tracer at the given level;
// pass nil to detach. The executor then emits phase, synchronization, and
// staging spans, and — at trace.LevelLink — one KindLinkBusy per scheduled
// transfer. If the tracer contains a trace.Util aggregator (directly or
// via trace.Multi), it is resolved here so UtilSummary can surface
// link-utilization statistics without re-walking the tracer tree.
func (n *Network) SetTracer(t trace.Tracer, level trace.Level) {
	n.tracer = t
	n.traceLinks = t != nil && level >= trace.LevelLink
	n.util = trace.FindUtil(t)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (n *Network) Tracer() trace.Tracer { return n.tracer }

// UtilSummary digests the attached utilization aggregator into per-tier
// occupancy statistics and a top-N contended-links table. It returns nil
// when no aggregator is attached — the nil is what keeps machine.Report
// comparable across untraced runs.
func (n *Network) UtilSummary() *trace.Summary {
	if n.util == nil {
		return nil
	}
	return n.util.Summary(trace.DefaultTopN)
}

// linkEndpoints resolves a link to its (from, to) trace coordinates: ring
// segments connect bank b to its clockwise successor, DQ channels connect
// a chip to the crossbar (-1), and the shared bus has no fixed endpoints.
func (n *Network) linkEndpoints(ref LinkRef) (int32, int32) {
	switch ref.Role {
	case RefRing:
		return ref.Index, (ref.Index + 1) % int32(n.Topo.Banks)
	case RefChipSend:
		return ref.Chip, -1
	case RefChipRecv:
		return -1, ref.Chip
	default:
		return -1, -1
	}
}

// physChip maps a logical chip position to the physical chip occupying it.
// The identity map until the recompiler installs a reordering to route
// around stuck crossbar pairings.
func (n *Network) physChip(chip int) int {
	if n.chipOrder == nil {
		return chip
	}
	return n.chipOrder[chip]
}

// ringRef names the ring segment from bank b to its clockwise successor
// within (rank, logical chip).
func (n *Network) ringRef(rank, chip, bank int) LinkRef {
	return LinkRef{Role: RefRing, Rank: int32(rank), Chip: int32(n.physChip(chip)), Index: int32(bank)}
}

// sendRef names the logical chip's DQ send channel into the crossbar.
func (n *Network) sendRef(rank, chip int) LinkRef {
	return LinkRef{Role: RefChipSend, Rank: int32(rank), Chip: int32(n.physChip(chip))}
}

// recvRef names the logical chip's DQ receive channel from the crossbar.
func (n *Network) recvRef(rank, chip int) LinkRef {
	return LinkRef{Role: RefChipRecv, Rank: int32(rank), Chip: int32(n.physChip(chip))}
}

// busRef names the shared inter-rank DDR bus.
var busRef = LinkRef{Role: RefBus}

// chipPair emits the send/receive transfer pair of one crossbar hop from
// logical chip a to logical chip b within rank. When the crossbar pairing
// between the mapped physical chips is stuck (a hard fault), both transfers
// are marked Dead: the DQ channels themselves are healthy, but data routed
// through the wedged internal mux never arrives, which the executor turns
// into a detection timeout.
func (n *Network) chipPair(rank, a, b int, bytes int64) (Transfer, Transfer) {
	dead := n.deadPath[chipPath{rank, n.physChip(a), n.physChip(b)}]
	return Transfer{Ref: n.sendRef(rank, a), Kind: KindCrossbarPort, Bytes: bytes, Dead: dead},
		Transfer{Ref: n.recvRef(rank, b), Kind: KindCrossbarPort, Bytes: bytes, Dead: dead}
}

// SyncLatency returns the READY/START propagation cost for a collective
// whose scope spans the given number of hierarchy levels: within one chip
// only the control interface unit participates; across chips the inter-chip
// switch aggregates; across ranks the inter-rank switch does (Section IV-C).
func (n *Network) SyncLatency() sim.Time {
	switch {
	case n.Topo.Ranks > 1:
		return n.Sys.Net.SyncRankLat
	case n.Topo.Chips > 1:
		return n.Sys.Net.SyncChipLat
	default:
		return n.Sys.Net.SyncBankLat
	}
}

// linkAt resolves a fault site to the physical link it names.
func (n *Network) linkAt(site faults.Site, rank, chip, index int) (*sim.Link, error) {
	if rank < 0 || rank >= n.Topo.Ranks {
		return nil, fmt.Errorf("core: fault rank %d out of range [0,%d)", rank, n.Topo.Ranks)
	}
	if site != faults.SiteBus && (chip < 0 || chip >= n.Topo.Chips) {
		return nil, fmt.Errorf("core: fault chip %d out of range [0,%d)", chip, n.Topo.Chips)
	}
	ref := LinkRef{Rank: int32(rank), Chip: int32(chip)}
	switch site {
	case faults.SiteRing:
		if index < 0 || index >= n.Topo.Banks {
			return nil, fmt.Errorf("core: fault ring segment %d out of range [0,%d)", index, n.Topo.Banks)
		}
		ref.Role, ref.Index = RefRing, int32(index)
	case faults.SiteChipSend:
		ref.Role = RefChipSend
	case faults.SiteChipRecv:
		ref.Role = RefChipRecv
	case faults.SiteBus:
		ref = busRef
	default:
		return nil, fmt.Errorf("core: fault site %v does not name a link", site)
	}
	return n.link(ref), nil
}

// ApplyFault realizes one fault into the network. Straggler, corruption and
// sync-drop faults carry no network state (the fault model itself drives
// them at execution time) and are accepted as no-ops so a schedule can apply
// a whole model uniformly.
func (n *Network) ApplyFault(f faults.Fault) error {
	switch f.Class {
	case faults.LinkDegrade:
		l, err := n.linkAt(f.Site, f.Rank, f.Chip, f.Index)
		if err != nil {
			return err
		}
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("core: degrade factor %v outside (0,1]", f.Factor)
		}
		l.Degrade(f.Factor)
		return nil
	case faults.LinkFail:
		if f.Site == faults.SiteChipPath {
			if f.Rank < 0 || f.Rank >= n.Topo.Ranks {
				return fmt.Errorf("core: fault rank %d out of range [0,%d)", f.Rank, n.Topo.Ranks)
			}
			if f.Chip < 0 || f.Chip >= n.Topo.Chips || f.Index < 0 || f.Index >= n.Topo.Chips {
				return fmt.Errorf("core: chip pair (%d,%d) out of range [0,%d)", f.Chip, f.Index, n.Topo.Chips)
			}
			if f.Chip == f.Index {
				return fmt.Errorf("core: chip pair (%d,%d) is not a crossbar pairing", f.Chip, f.Index)
			}
			if n.deadPath == nil {
				n.deadPath = make(map[chipPath]bool)
			}
			n.deadPath[chipPath{f.Rank, f.Chip, f.Index}] = true
			return nil
		}
		l, err := n.linkAt(f.Site, f.Rank, f.Chip, f.Index)
		if err != nil {
			return err
		}
		l.Fail()
		return nil
	case faults.Straggler, faults.TransientCorrupt, faults.SyncDrop:
		return nil
	default:
		return fmt.Errorf("core: unknown fault class %v", f.Class)
	}
}

// ClearFaults repairs every link, forgets stuck crossbar pairings, and
// drops any recompiled chip ordering, restoring the pristine topology.
func (n *Network) ClearFaults() {
	for i := range n.links {
		n.links[i].Restore()
	}
	n.deadPath = nil
	n.chipOrder = nil
}

// hasHardFaults reports whether any resource is hard-failed (as opposed to
// merely degraded): a failed link or a stuck crossbar pairing. Hard faults
// require recompilation; soft faults only slow the existing plan down.
func (n *Network) hasHardFaults() bool {
	if len(n.deadPath) > 0 {
		return true
	}
	for i := range n.links {
		if n.links[i].Failed() {
			return true
		}
	}
	return false
}

// Pristine reports whether the network is in its as-built state: no stuck
// crossbar pairings, no recompiled chip ordering, and every link healthy.
// Only pristine networks may serve or populate the shared plan cache.
func (n *Network) Pristine() bool {
	if len(n.deadPath) > 0 || n.chipOrder != nil {
		return false
	}
	for i := range n.links {
		if n.links[i].Faulty() {
			return false
		}
	}
	return true
}

// ScaleBankBandwidth rewrites every ring segment for a new per-channel
// inter-bank bandwidth (Fig. 14a sensitivity sweep).
func (n *Network) ScaleBankBandwidth(perChannelBW float64) {
	sys := n.Sys
	sys.Net.BankChannelBW = perChannelBW
	eff := sys.BankRingBW()
	n.Sys = sys
	ring, _, _, _ := n.classes()
	for i := range ring {
		ring[i].SetBandwidth(eff)
	}
}

// ScaleGlobalBandwidth rewrites the inter-chip channels and the rank bus by
// a common factor (Fig. 14b sensitivity sweep).
func (n *Network) ScaleGlobalBandwidth(factor float64) {
	n.Sys.Net.ChipChannelBW *= factor
	n.Sys.Net.RankBusBW *= factor
	_, send, recv, bus := n.classes()
	for i := range send {
		send[i].SetBandwidth(n.Sys.Net.ChipChannelBW)
		recv[i].SetBandwidth(n.Sys.Net.ChipChannelBW)
	}
	bus.SetBandwidth(n.Sys.Net.RankBusBW)
}
