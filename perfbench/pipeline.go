package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"pimnet"
	"pimnet/internal/backend"
	"pimnet/internal/collective"
	"pimnet/internal/core"
	"pimnet/internal/noc"
	"pimnet/internal/report"
	"pimnet/internal/serve"
	"pimnet/internal/store"
	"pimnet/internal/sweep"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the enclosing span's index (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	// Allocs and Bytes are heap allocations made during the span, taken
	// from runtime.MemStats deltas; only spans opened with allocs=true
	// measure them. One goroutine does all traced work, so a delta belongs
	// to the call it brackets.
	Allocs   uint64 `json:"allocs,omitempty"`
	Bytes    uint64 `json:"bytes,omitempty"`
	measured bool
}

// tracer records spans in memory. It is single-goroutine by design.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
	// stall is the time spent reading memory statistics, which the
	// per-request pipeline time excludes.
	stall time.Duration
	cur   int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) readMem() {
	s := time.Now()
	runtime.ReadMemStats(&t.ms)
	t.stall += time.Since(s)
}

func (t *tracer) begin(name string, allocs bool) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Req: t.req, measured: allocs})
	if allocs {
		t.readMem()
		t.spans[id].Allocs, t.spans[id].Bytes = t.ms.Mallocs, t.ms.TotalAlloc
	}
	t.spans[id].Start = int64(time.Since(t.t0))
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	end := int64(time.Since(t.t0))
	if t.spans[id].measured {
		t.readMem()
		t.spans[id].Allocs = t.ms.Mallocs - t.spans[id].Allocs
		t.spans[id].Bytes = t.ms.TotalAlloc - t.spans[id].Bytes
	}
	t.spans[id].End = end
	t.cur = t.spans[id].Parent
}

// pipeline rebuilds the server's request handling from the public call of
// each layer, in the order the server makes them, and times each call. It
// owns its own plan cache and store so that it sees the same hits and
// misses as the server it shadows.
type pipeline struct {
	t     *tracer
	cache *core.PlanCache
	st    *store.Store

	// Plan-cache lookups, including those made inside library calls
	// (machine.Run), and how many were served (memory or disk) or missed,
	// which is a compile.
	lookups, hits, misses         uint64
	seen                          core.CacheStats
	faulted, detected, recompiled uint64
	nocPoints, nocPackets         int64
	lastPackets                   int64 // packets simulated by the last request
}

func newPipeline(w workload, dir string) (*pipeline, error) {
	st, err := openStore(w, dir)
	if err != nil {
		return nil, err
	}
	p := &pipeline{t: newTracer(), cache: core.NewPlanCache(), st: st}
	if st != nil && !w.ephemeralPlans {
		p.cache.SetPersistence(store.PlanAdapter{S: st})
	}
	return p, nil
}

// run replays one request and returns the response body the server would
// have written, plus the pipeline's own time for it.
func (p *pipeline) run(req request, id int32) ([]byte, time.Duration, error) {
	p.t.req = id
	p.lastPackets = 0
	stall := p.t.stall
	root := p.t.begin("request", false)
	var body []byte
	var err error
	switch req.path {
	case "/v1/simulate":
		body, err = p.simulate(req.body)
	case "/v1/sweep":
		body, err = p.sweep(req.body)
	case "/v1/noc/sweep":
		body, err = p.nocSweep(req.body)
	default:
		err = fmt.Errorf("no pipeline for %s", req.path)
	}
	p.t.end(root)
	sp := p.t.spans[root]
	return body, time.Duration(sp.End-sp.Start) - (p.t.stall - stall), err
}

// afterRequest folds the plan cache's counters into the pipeline's and,
// when the workload's plans are ephemeral, clears the cache as the
// benchmark's client does for the server.
func (p *pipeline) afterRequest(w workload) {
	st := p.cache.Stats()
	d := st.Sub(p.seen)
	p.hits += d.Hits + d.DiskHits
	p.misses += d.Misses
	p.lookups += d.Hits + d.DiskHits + d.Misses
	p.seen = st
	if w.ephemeralPlans {
		p.cache.Reset()
		p.seen = core.CacheStats{}
	}
}

// call times fn as a span.
func (p *pipeline) call(name string, allocs bool, fn func() error) error {
	s := p.t.begin(name, allocs)
	err := fn()
	p.t.end(s)
	return err
}

func (p *pipeline) encode(v any) ([]byte, error) {
	var out []byte
	err := p.call("serve.encode", true, func() (err error) {
		out, err = json.Marshal(v)
		return err
	})
	return out, err
}

// newBackend builds the point's backend with the shared plan cache, as the
// server does. For PIMnet this is the network build.
func (p *pipeline) newBackend(pt point) (pimnet.Backend, error) {
	opts, err := pt.faultOption()
	if err != nil {
		return nil, err
	}
	opts = append(opts, pimnet.WithPlanCache(p.cache))
	if pt.kind != pimnet.PIMnet {
		return pimnet.NewBackend(pt.kind, pt.sys, opts...)
	}
	var be pimnet.Backend
	err = p.call("core.network.build", true, func() (err error) {
		be, err = pimnet.NewBackend(pt.kind, pt.sys, opts...)
		return err
	})
	return be, err
}

// collective runs a healthy collective. On PIMnet it unrolls the plan
// cache's read-through (lookup, then bind or compile and insert) and the
// executor, so each is timed; other backends are one call.
func (p *pipeline) collective(be pimnet.Backend, name string, req collective.Request) (backend.Result, error) {
	var res backend.Result
	pn, ok := be.(*core.PIMnet)
	if !ok {
		err := p.call("backend."+name+".collective", false, func() (err error) {
			res, err = be.Collective(req)
			return err
		})
		return res, err
	}
	net := pn.Network()
	k := core.KeyFor(net, req)
	var bp *core.Blueprint
	var hit bool
	p.call("core.plancache.lookup", false, func() error {
		bp, hit = p.cache.Lookup(k)
		return nil
	})
	var plan *core.Plan
	if hit {
		if err := p.call("core.plancache.bind", true, func() (err error) {
			plan, err = bp.Bind(net)
			return err
		}); err != nil {
			return res, err
		}
	} else {
		if err := p.call("core.compile", false, func() (err error) {
			plan, err = core.PlanFor(net, req)
			return err
		}); err != nil {
			return res, err
		}
		if err := p.call("core.compile.blueprint", false, func() (err error) {
			bp, err = core.BlueprintOf(plan, net)
			return err
		}); err != nil {
			return res, err
		}
		p.call("core.plancache.insert", false, func() error {
			p.cache.Insert(k, bp)
			return nil
		})
	}
	err := p.call("core.exec", true, func() (err error) {
		res, err = net.Execute(plan)
		return err
	})
	return res, err
}

func (p *pipeline) simulate(body []byte) ([]byte, error) {
	var echo serve.SimulateRequest
	if err := p.call("serve.decode", false, func() (err error) {
		echo, _, err = serve.DecodeSimulateRequest(bytes.NewReader(body))
		return err
	}); err != nil {
		return nil, err
	}
	pt, err := resolve(echo)
	if err != nil {
		return nil, err
	}
	be, err := p.newBackend(pt)
	if err != nil {
		return nil, err
	}
	resp := serve.SimulateResponse{Request: echo, Backend: be.Name(), PlanKey: pt.planKey()}

	if pt.workload != "" {
		var wl pimnet.Workload
		if err := p.call("workloads.build", true, func() (err error) {
			wl, err = pimnet.NamedWorkload(pt.workload, pt.sys.DPUsPerChannel(), pt.seed, pt.scaled)
			return err
		}); err != nil {
			return nil, err
		}
		m, err := pimnet.NewMachine(pt.sys, be)
		if err != nil {
			return nil, err
		}
		var rep pimnet.Report
		if err := p.call("machine.run", false, func() (err error) {
			rep, err = m.Run(wl)
			return err
		}); err != nil {
			return nil, err
		}
		resp.Report = &rep
		return p.encode(resp)
	}

	var res backend.Result
	if pt.faults != "" {
		if err := p.call("core.faulttol.collective", false, func() (err error) {
			res, err = be.Collective(pt.req)
			return err
		}); err != nil {
			return nil, err
		}
		pn := be.(*core.PIMnet)
		fc, deg := pn.FaultCounters(), pn.DegradedMode()
		resp.Faults, resp.Degraded = &fc, &deg
		p.faulted++
		p.detected += fc.Detected
		p.recompiled += fc.Recompiled
	} else if res, err = p.collective(be, echo.Backend, pt.req); err != nil {
		return nil, err
	}
	resp.TimePs, resp.Time, resp.Breakdown = res.Time, res.Time.String(), &res.Breakdown
	return p.encode(resp)
}

// pointKey names one sweep point in the pipeline's own result store.
func pointKey(pt point) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("point\x00%v\x00%s\x00%+v", pt.kind, pt.planKey(), pt.req)))
	return hex.EncodeToString(h[:])
}

type gridPoint struct {
	dpus  int
	bytes int64
}

func (p *pipeline) sweep(body []byte) ([]byte, error) {
	var sr serve.SweepRequest
	if err := p.call("serve.decode", false, func() (err error) {
		sr, _, err = serve.DecodeSweepRequest(bytes.NewReader(body), 4096)
		return err
	}); err != nil {
		return nil, err
	}
	var grid []gridPoint
	for _, d := range sr.DPUs {
		for _, b := range sr.BytesPerNode {
			grid = append(grid, gridPoint{d, b})
		}
	}
	// One worker keeps all traced work on this goroutine, so memory deltas
	// stay attributable; the server's pool efficiency is read from its own
	// responses instead.
	points, stats, err := sweep.Run(grid, func(_ *sweep.Context, g gridPoint) (sp serve.SweepPoint, err error) {
		s := p.t.begin("sweep.point", false)
		defer p.t.end(s)
		return p.sweepPoint(sr, g)
	}, sweep.WithWorkers(1), sweep.WithCache(p.cache))
	if err != nil {
		return nil, err
	}
	return p.encode(serve.SweepResponse{Backend: sr.Backend, Pattern: sr.Pattern, Points: points,
		Stats: report.NewSweepStatsJSON(stats)})
}

func (p *pipeline) sweepPoint(sr serve.SweepRequest, g gridPoint) (serve.SweepPoint, error) {
	var sp serve.SweepPoint
	pt, err := resolve(serve.SimulateRequest{Backend: sr.Backend, Pattern: sr.Pattern, Op: sr.Op,
		ElemSize: sr.ElemSize, DPUs: g.dpus, BytesPerNode: g.bytes})
	if err != nil {
		return sp, err
	}
	key := pointKey(pt)
	if p.st != nil {
		var payload []byte
		var ok bool
		p.call("store.get", false, func() error {
			payload, ok = p.st.Get(store.NSResults, key)
			return nil
		})
		if ok && json.Unmarshal(payload, &sp) == nil {
			return sp, nil
		}
	}
	be, err := p.newBackend(pt)
	if err != nil {
		return sp, err
	}
	res, err := p.collective(be, sr.Backend, pt.req)
	if err != nil {
		return sp, err
	}
	sp = serve.SweepPoint{DPUs: g.dpus, BytesPerNode: g.bytes, TimePs: res.Time, Time: res.Time.String(),
		Breakdown: res.Breakdown, PlanKey: pt.planKey()}
	if p.st != nil {
		payload, err := json.Marshal(sp)
		if err != nil {
			return sp, err
		}
		if err := p.call("store.put", false, func() error { return p.st.Put(store.NSResults, key, payload) }); err != nil {
			return sp, err
		}
	}
	return sp, nil
}

func (p *pipeline) nocSweep(body []byte) ([]byte, error) {
	var nr serve.NocSweepRequest
	var pts []noc.PatternPoint
	if err := p.call("serve.decode", false, func() (err error) {
		nr, pts, err = serve.DecodeNocSweepRequest(bytes.NewReader(body), 4096)
		return err
	}); err != nil {
		return nil, err
	}
	results, stats, err := sweep.Run(pts, func(_ *sweep.Context, pp noc.PatternPoint) (r noc.PatternResult, err error) {
		s := p.t.begin("sweep.point", false)
		defer p.t.end(s)
		err = p.call("noc.point", false, func() (err error) {
			r, err = noc.RunPatternPoint(pp)
			return err
		})
		p.nocPoints++
		p.nocPackets += r.PacketsDelivered
		p.lastPackets += r.PacketsDelivered
		return r, err
	}, sweep.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	resp := serve.NocSweepResponse{Request: nr, Nodes: results[0].Nodes,
		Points: make([]serve.NocSweepPoint, len(results)), Stats: report.NewSweepStatsJSON(stats)}
	for i, r := range results {
		resp.Points[i] = serve.NocSweepPoint{Pattern: r.Pattern.String(), Mode: r.Mode.String(),
			FinishPs: r.Finish, Finish: r.Finish.String(), Packets: r.PacketsDelivered, MaxQueue: r.MaxQueue}
	}
	return p.encode(resp)
}
