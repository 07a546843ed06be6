package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"pimnet"
	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/metrics"
	"pimnet/internal/noc"
	"pimnet/internal/serve"
)

// anchorTimePs is the paper-calibrated latency of a 32 KiB AllReduce on
// 256 DPUs under PIMnet; every run re-derives and pins it.
const anchorTimePs = 111328164

// point is a resolved simulate request: everything a library call needs.
type point struct {
	kind     pimnet.BackendKind
	sys      pimnet.System
	req      collective.Request // zero for workload runs
	workload string
	seed     int64
	scaled   bool
	faults   string
	faultSeq int64
}

// resolve turns a simulate request, normalized or not, into library
// arguments, applying the server's documented defaults.
func resolve(r serve.SimulateRequest) (point, error) {
	var p point
	backend := r.Backend
	if backend == "" {
		backend = "pimnet"
	}
	kind, err := pimnet.ParseBackendKind(backend)
	if err != nil {
		return p, err
	}
	dpus := r.DPUs
	if dpus == 0 {
		dpus = 256
	}
	sys, err := pimnet.DefaultSystem().WithDPUs(dpus)
	if err != nil {
		return p, err
	}
	p.kind, p.sys = kind, sys
	p.faults, p.faultSeq = r.Faults, r.FaultSeed
	if p.faults != "" && p.faultSeq == 0 {
		p.faultSeq = 1
	}
	if r.Workload != "" {
		p.workload, p.seed, p.scaled = r.Workload, r.Seed, r.Scaled == nil || *r.Scaled
		if p.seed == 0 {
			p.seed = 1
		}
		return p, nil
	}
	pattern, op := r.Pattern, r.Op
	if pattern == "" {
		pattern = "allreduce"
	}
	if op == "" {
		op = "sum"
	}
	pat, err := collective.ParsePattern(pattern)
	if err != nil {
		return p, err
	}
	o, err := collective.ParseOp(op)
	if err != nil {
		return p, err
	}
	p.req = collective.Request{Pattern: pat, Op: o, BytesPerNode: r.BytesPerNode, ElemSize: r.ElemSize,
		Nodes: dpus, Root: r.Root}
	if p.req.BytesPerNode == 0 {
		p.req.BytesPerNode = 32 << 10
	}
	if p.req.ElemSize == 0 {
		p.req.ElemSize = 4
	}
	return p, nil
}

func (p point) planKey() string { return core.KeyForSystem(p.sys, p.req, 0).Digest() }

// faultOption arms the point's fault spec, if any.
func (p point) faultOption() ([]pimnet.Option, error) {
	if p.faults == "" {
		return nil, nil
	}
	spec, err := pimnet.ParseFaultSpec(p.faults)
	if err != nil {
		return nil, err
	}
	spec.Seed = p.faultSeq
	return []pimnet.Option{pimnet.WithFaults(spec)}, nil
}

// simResult is what a simulate response must say about its point.
type simResult struct {
	Backend  string                 `json:"backend"`
	PlanKey  string                 `json:"plan_key"`
	TimePs   int64                  `json:"time_ps"`
	Faults   *metrics.FaultCounters `json:"faults"`
	Degraded *bool                  `json:"degraded"`
	Report   json.RawMessage        `json:"report"`
}

// reference computes a point's result with a fresh backend and no plan
// cache, independent of the server under test.
func reference(p point) (simResult, error) {
	opts, err := p.faultOption()
	if err != nil {
		return simResult{}, err
	}
	be, err := pimnet.NewBackend(p.kind, p.sys, opts...)
	if err != nil {
		return simResult{}, err
	}
	out := simResult{Backend: be.Name(), PlanKey: p.planKey()}
	if p.workload != "" {
		wl, err := pimnet.NamedWorkload(p.workload, p.sys.DPUsPerChannel(), p.seed, p.scaled)
		if err != nil {
			return simResult{}, err
		}
		m, err := pimnet.NewMachine(p.sys, be)
		if err != nil {
			return simResult{}, err
		}
		rep, err := m.Run(wl)
		if err != nil {
			return simResult{}, err
		}
		out.Report = mustJSON(rep)
		return out, nil
	}
	res, err := be.Collective(p.req)
	if err != nil {
		return simResult{}, err
	}
	out.TimePs = int64(res.Time)
	if fa, ok := be.(*core.PIMnet); ok && p.faults != "" {
		fc, deg := fa.FaultCounters(), fa.DegradedMode()
		out.Faults, out.Degraded = &fc, &deg
	}
	return out, nil
}

// matches reports how got differs from the reference, or nil.
func (want simResult) matches(got simResult) error {
	switch {
	case got.Backend != want.Backend:
		return fmt.Errorf("backend %q, want %q", got.Backend, want.Backend)
	case got.PlanKey != want.PlanKey:
		return fmt.Errorf("plan_key %s, want %s", got.PlanKey, want.PlanKey)
	case got.TimePs != want.TimePs:
		return fmt.Errorf("time_ps %d, want %d", got.TimePs, want.TimePs)
	case !bytes.Equal(got.Report, want.Report):
		return fmt.Errorf("report %s, want %s", got.Report, want.Report)
	case (got.Faults == nil) != (want.Faults == nil) || got.Faults != nil && *got.Faults != *want.Faults:
		return fmt.Errorf("faults %+v, want %+v", got.Faults, want.Faults)
	case (got.Degraded == nil) != (want.Degraded == nil) || got.Degraded != nil && *got.Degraded != *want.Degraded:
		return fmt.Errorf("degraded mismatch")
	}
	return nil
}

type sweepPointKey struct {
	pattern string
	dpus    int
	bytes   int64
}

type nocPointKey struct {
	seed  int64
	index int
}

// oracle memoizes reference results. It is safe for concurrent use, so
// post-run checks can fan out.
type oracle struct {
	mu  sync.Mutex
	sim map[string]simResult // by request body
	pts map[sweepPointKey]simResult
	noc map[nocPointKey]noc.PatternResult
}

// newOracle returns an empty oracle and the outcome of re-deriving the
// anchor, which the caller counts as one more checked operation.
func newOracle() (*oracle, error) {
	o := &oracle{sim: map[string]simResult{}, pts: map[sweepPointKey]simResult{}, noc: map[nocPointKey]noc.PatternResult{}}
	ref, err := o.sweepPoint(sweepPointKey{"allreduce", 256, 32 << 10})
	if err != nil {
		return o, fmt.Errorf("anchor: %w", err)
	}
	if ref.TimePs != anchorTimePs {
		return o, fmt.Errorf("anchor AllReduce 256 DPUs 32 KiB: time_ps %d, want %d", ref.TimePs, anchorTimePs)
	}
	return o, nil
}

// simulate returns the reference for one simulate request body.
func (o *oracle) simulate(body []byte) (simResult, error) {
	o.mu.Lock()
	ref, ok := o.sim[string(body)]
	o.mu.Unlock()
	if ok {
		return ref, nil
	}
	var r serve.SimulateRequest
	if err := json.Unmarshal(body, &r); err != nil {
		return simResult{}, err
	}
	p, err := resolve(r)
	if err != nil {
		return simResult{}, err
	}
	if ref, err = reference(p); err != nil {
		return simResult{}, err
	}
	o.mu.Lock()
	o.sim[string(body)] = ref
	o.mu.Unlock()
	return ref, nil
}

func (o *oracle) sweepPoint(k sweepPointKey) (simResult, error) {
	o.mu.Lock()
	ref, ok := o.pts[k]
	o.mu.Unlock()
	if ok {
		return ref, nil
	}
	p, err := resolve(serve.SimulateRequest{Pattern: k.pattern, DPUs: k.dpus, BytesPerNode: k.bytes})
	if err != nil {
		return simResult{}, err
	}
	if ref, err = reference(p); err != nil {
		return simResult{}, err
	}
	o.mu.Lock()
	o.pts[k] = ref
	o.mu.Unlock()
	return ref, nil
}

func nocGrid(seed int64) []noc.PatternPoint {
	return noc.AdversarialGrid(noc.DefaultConfig(nocRanks, nocChips, nocBanks), 32<<10, 2, seed)
}

func (o *oracle) nocPoint(k nocPointKey) (noc.PatternResult, error) {
	o.mu.Lock()
	ref, ok := o.noc[k]
	o.mu.Unlock()
	if ok {
		return ref, nil
	}
	ref, err := noc.RunPatternPoint(nocGrid(k.seed)[k.index])
	if err != nil {
		return ref, err
	}
	o.mu.Lock()
	o.noc[k] = ref
	o.mu.Unlock()
	return ref, nil
}

// nocSampled is how many points of each NoC grid the oracle recomputes; the
// rest are covered by byte identity across repeats of the same seed.
const nocSampled = 2

// nocSample picks the grid indices the oracle checks for one seed.
func nocSample(seed int64) []int {
	n := len(nocGrid(seed))
	return streamRand(seed, 9).Perm(n)[:nocSampled]
}

// check verifies one 200 response body against the oracle.
func (o *oracle) check(req request, body []byte) error {
	switch req.path {
	case "/v1/simulate":
		want, err := o.simulate(req.body)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		var got simResult
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return want.matches(got)
	case "/v1/sweep":
		var sr serve.SweepRequest
		if err := json.Unmarshal(req.body, &sr); err != nil {
			return err
		}
		var resp serve.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Points) != len(sr.DPUs)*len(sr.BytesPerNode) {
			return fmt.Errorf("%d points, want %d", len(resp.Points), len(sr.DPUs)*len(sr.BytesPerNode))
		}
		i := 0
		for _, d := range sr.DPUs {
			for _, b := range sr.BytesPerNode {
				got := resp.Points[i]
				if got.DPUs != d || got.BytesPerNode != b {
					return fmt.Errorf("point %d is (%d, %d), want (%d, %d)", i, got.DPUs, got.BytesPerNode, d, b)
				}
				want, err := o.sweepPoint(sweepPointKey{sr.Pattern, d, b})
				if err != nil {
					return fmt.Errorf("reference: %w", err)
				}
				if got.TimePs != pimnet.Time(want.TimePs) || got.PlanKey != want.PlanKey {
					return fmt.Errorf("point %d: time_ps %d plan_key %s, want %d %s", i, got.TimePs, got.PlanKey, want.TimePs, want.PlanKey)
				}
				i++
			}
		}
		return nil
	case "/v1/noc/sweep":
		var nr serve.NocSweepRequest
		if err := json.Unmarshal(req.body, &nr); err != nil {
			return err
		}
		var resp serve.NocSweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Points) != len(nocGrid(nr.Seed)) {
			return fmt.Errorf("%d points, want %d", len(resp.Points), len(nocGrid(nr.Seed)))
		}
		for _, i := range nocSample(nr.Seed) {
			want, err := o.nocPoint(nocPointKey{nr.Seed, i})
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			got := resp.Points[i]
			if got.Pattern != want.Pattern.String() || got.Mode != want.Mode.String() ||
				got.FinishPs != want.Finish || got.Packets != want.PacketsDelivered || got.MaxQueue != want.MaxQueue {
				return fmt.Errorf("point %d: %+v, want %v/%v finish %d packets %d max_queue %d", i, got,
					want.Pattern, want.Mode, want.Finish, want.PacketsDelivered, want.MaxQueue)
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for %s", req.path)
}

// deterministic returns the part of a response body that must repeat
// byte for byte: sweep responses end in wall-clock stats, which do not.
func deterministic(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"stats":`)); i >= 0 {
		return body[:i]
	}
	return body
}
