package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// This file replays a run's request schedule in-process through
// service.Service.Do, configured exactly as emogi-serve configures it, and
// times the public layer boundaries from outside: a forwarding gpu.Telemetry
// sink sees every run, round, launch and copy hook, and a forwarding
// TransportPolicy sees every Decide call. The program itself is unchanged;
// detaching the wrappers gives the untraced replay the overhead ratio is
// taken against.

// checksum is emogi-serve's values_checksum: FNV-64a over the values as
// little-endian uint32s.
func checksum(values []uint32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range values {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent indexes the enclosing span (-1 for none). Times are
// host nanoseconds since the replay began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTimer is the forwarding telemetry sink. Device hooks arrive
// sequentially from the device's goroutine, and the replay issues one
// request at a time, so its state needs no locking.
type layerTimer struct {
	inner gpu.Telemetry
	epoch time.Time
	spans []span

	req, doSpan, runSpan int
	runStart, roundStart time.Time
	lastHook             time.Time

	runs, rounds, launches, decides int
	runNS, roundNS, launchNS        int64
	decideNS, reqRunNS              int64
	decideAllocs                    uint64

	allocSample []metrics.Sample
}

func newLayerTimer(inner gpu.Telemetry) *layerTimer {
	return &layerTimer{
		inner:       inner,
		epoch:       time.Now(),
		doSpan:      -1,
		runSpan:     -1,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *layerTimer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *layerTimer) addSpan(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name, t.req, parent, t.ns(start), t.ns(end)})
	return len(t.spans) - 1
}

// beginDo and endDo bracket one service.Do call.
func (t *layerTimer) beginDo(req int) time.Time {
	now := time.Now()
	t.req, t.reqRunNS = req, 0
	t.doSpan = t.addSpan("service.Do", -1, now, now)
	return now
}

func (t *layerTimer) endDo(end time.Time) {
	t.spans[t.doSpan].End = t.ns(end)
	t.doSpan = -1
}

func (t *layerTimer) RunBegin(dev *gpu.Device, labels gpu.RunLabels) {
	now := time.Now()
	t.runStart, t.roundStart, t.lastHook = now, now, now
	t.runSpan = t.addSpan("core.run", t.doSpan, now, time.Time{})
	t.inner.RunBegin(dev, labels)
}

func (t *layerTimer) RunEnd(dev *gpu.Device) {
	t.inner.RunEnd(dev)
	now := time.Now()
	d := now.Sub(t.runStart).Nanoseconds()
	t.runs++
	t.runNS += d
	t.reqRunNS += d
	t.spans[t.runSpan].End = t.ns(now)
	t.runSpan = -1
}

func (t *layerTimer) KernelDone(dev *gpu.Device, ks *gpu.KernelStats, workers, maxWorkers int, start, end time.Duration) {
	now := time.Now()
	t.launches++
	t.launchNS += now.Sub(t.lastHook).Nanoseconds()
	t.addSpan("gpu.launch", t.runSpan, t.lastHook, now)
	t.inner.KernelDone(dev, ks, workers, maxWorkers, start, end)
	t.lastHook = time.Now()
}

func (t *layerTimer) CopyDone(dev *gpu.Device, toDevice bool, bytes int64, start, end time.Duration) {
	t.inner.CopyDone(dev, toDevice, bytes, start, end)
	t.lastHook = time.Now()
}

func (t *layerTimer) RoundDone(dev *gpu.Device, name string, round int, start, end time.Duration) {
	now := time.Now()
	t.rounds++
	t.roundNS += now.Sub(t.roundStart).Nanoseconds()
	t.addSpan("core.round", t.runSpan, t.roundStart, now)
	t.inner.RoundDone(dev, name, round, start, end)
	t.roundStart = time.Now()
	t.lastHook = t.roundStart
}

// TransportDecisions forwards the optional decision hook.
func (t *layerTimer) TransportDecisions(dev *gpu.Device, round int, moves []gpu.TransportMove, start, end time.Duration) {
	if s, ok := t.inner.(gpu.TransportDecisionSink); ok {
		s.TransportDecisions(dev, round, moves, start, end)
	}
	t.lastHook = time.Now()
}

// BindTrace and UnbindTrace forward the optional request-trace binding.
func (t *layerTimer) BindTrace(rt *telemetry.RequestTrace) {
	if b, ok := t.inner.(telemetry.TraceBinder); ok {
		b.BindTrace(rt)
	}
}

func (t *layerTimer) UnbindTrace() {
	if b, ok := t.inner.(telemetry.TraceBinder); ok {
		b.UnbindTrace()
	}
}

func (t *layerTimer) heapAllocs() uint64 {
	metrics.Read(t.allocSample)
	return t.allocSample[0].Value.Uint64()
}

// timedPolicy forwards a transport policy, timing each Decide call and
// counting the heap objects it allocates.
type timedPolicy struct {
	inner core.TransportPolicy
	t     *layerTimer
}

func (p timedPolicy) Name() string                   { return p.inner.Name() }
func (p timedPolicy) Description() string            { return p.inner.Description() }
func (p timedPolicy) Static() (core.Transport, bool) { return p.inner.Static() }

func (p timedPolicy) Decide(round int, parts []core.PartitionStats, state []core.PartitionState, costs core.CostParams, out []core.Choice) {
	t := p.t
	a0 := t.heapAllocs()
	start := time.Now()
	p.inner.Decide(round, parts, state, costs, out)
	end := time.Now()
	t.decideAllocs += t.heapAllocs() - a0
	t.decides++
	t.decideNS += end.Sub(start).Nanoseconds()
	t.addSpan("core.decide", t.runSpan, start, end)
	t.lastHook = end
}

// replayReply is one replayed request's outcome.
type replayReply struct {
	checksum  string
	elapsedNS int64
	err       error
	doNS      int64
	runNS     int64 // engine run time inside this Do (0 for cache hits)
	cxlReqs   uint64
	cxlBytes  uint64
}

// replayResult is one whole replay.
type replayResult struct {
	replies  []replayReply
	buildNS  int64 // graph.BuildDataset for every dataset
	addNS    int64 // service.AddGraph for every dataset
	wallNS   int64 // the request loop
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	timer    *layerTimer // nil for the untraced replay
}

// newSystem builds the System exactly as emogi-serve does for w.
func newSystem(w workload, seed int64, tel gpu.Telemetry) (*emogi.System, emogi.TransportPolicy, emogi.Placement, error) {
	cfg := emogi.V100PCIe3(datasetScale)
	cfg, err := emogi.ApplyTierStack(cfg, w.tiers)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.GPUDrivenPaging = w.paging == "gpu"
	place, err := emogi.ParsePlacement(w.placement)
	if err != nil {
		return nil, nil, 0, err
	}
	pol, err := emogi.PolicyByName(w.transport)
	if err != nil {
		return nil, nil, 0, err
	}
	profile := fault.ProfileNone
	if w.faultRate > 0 {
		profile = fault.ProfileFlakyLink
	}
	fcfg, err := fault.ProfileConfig(profile, faultSeed(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	if w.faultRate > 0 {
		fcfg.ReadFaultRate = w.faultRate
	}
	inj, err := fault.New(fcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.Faults = inj
	cfg.Telemetry = tel
	return emogi.NewSystem(cfg), pol, place, nil
}

// replay runs queries one at a time through a fresh service. With traced
// set, the layer wrappers are attached.
func replay(w workload, seed int64, queries []query, traced bool) (*replayResult, error) {
	out := &replayResult{}
	t0 := time.Now()
	graphs := map[string]*emogi.Graph{}
	for _, name := range w.datasets() {
		g, err := emogi.BuildDataset(name, datasetScale, graphSeed(seed))
		if err != nil {
			return nil, err
		}
		graphs[name] = g
	}
	out.buildNS = time.Since(t0).Nanoseconds()

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	var sink gpu.Telemetry = telemetry.NewCollector(reg, nil)
	if traced {
		out.timer = newLayerTimer(sink)
		sink = out.timer
	}
	sys, pol, place, err := newSystem(w, seed, sink)
	if err != nil {
		return nil, err
	}
	if traced {
		pol = timedPolicy{inner: pol, t: out.timer}
	}
	svc := service.New(sys, service.Config{
		Concurrency:  4,
		QueueDepth:   64,
		CacheEntries: w.cache,
		Metrics:      reg,
		BatchMax:     32,
		Recorder:     telemetry.NewRecorder(telemetry.DefaultRecorderCapacity),
		Health:       telemetry.NewHealth(reg),
	})
	defer svc.Close()
	t0 = time.Now()
	for _, name := range w.datasets() {
		if err := svc.AddGraph(name, graphs[name], emogi.WithTransportPolicy(pol),
			emogi.WithElemBytes(8), emogi.WithPlacement(place)); err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
	}
	out.addNS = time.Since(t0).Nanoseconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx := context.Background()
	out.replies = make([]replayReply, len(queries))
	start := time.Now()
	for i, q := range queries {
		var begin time.Time
		if traced {
			begin = out.timer.beginDo(i)
		} else {
			begin = time.Now()
		}
		res, err := svc.Do(ctx, service.Request{
			Dataset: q.dataset,
			Algo:    q.algo,
			Src:     q.src,
			Variant: emogi.MergedAligned,
			TraceID: fmt.Sprintf("replay-%d", i),
		})
		end := time.Now()
		rr := replayReply{err: err, doNS: end.Sub(begin).Nanoseconds()}
		if traced {
			out.timer.endDo(end)
			rr.runNS = out.timer.reqRunNS
		}
		if err == nil {
			rr.checksum = checksum(res.Values)
			rr.elapsedNS = res.Elapsed.Nanoseconds()
			rr.cxlReqs = res.Stats.CXLRequests
			rr.cxlBytes = res.Stats.CXLPayloadBytes
		}
		out.replies[i] = rr
	}
	out.wallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.allocB = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = m1.NumGC - m0.NumGC
	return out, nil
}

// writeSpans writes the traced replay's spans as JSON.
func writeSpans(path string, t *layerTimer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
