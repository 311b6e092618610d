package gpu

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/uvm"
)

func TestShardRangeProperties(t *testing.T) {
	cases := []struct{ warps, workers int }{
		{0, 1}, {0, 8}, {1, 1}, {1, 8}, {7, 8}, {8, 8}, {9, 8},
		{100, 1}, {100, 3}, {100, 7}, {1000, 16}, {31, 32},
	}
	for _, c := range cases {
		covered := make([]int, c.warps)
		prevHi := 0
		for i := 0; i < c.workers; i++ {
			lo, hi := ShardRange(c.warps, c.workers, i)
			if lo != prevHi {
				t.Errorf("ShardRange(%d,%d,%d): lo = %d, want %d (contiguity)", c.warps, c.workers, i, lo, prevHi)
			}
			if size := hi - lo; size < c.warps/c.workers || size > c.warps/c.workers+1 {
				t.Errorf("ShardRange(%d,%d,%d): size %d not within one of %d", c.warps, c.workers, i, size, c.warps/c.workers)
			}
			for id := lo; id < hi; id++ {
				covered[id]++
			}
			prevHi = hi
		}
		if prevHi != c.warps {
			t.Errorf("ShardRange(%d,%d): last hi = %d, want %d", c.warps, c.workers, prevHi, c.warps)
		}
		for id, n := range covered {
			if n != 1 {
				t.Errorf("ShardRange(%d,%d): warp %d covered %d times", c.warps, c.workers, id, n)
			}
		}
	}
}

// launchStatsForWorkers runs a mixed zero-copy + HBM kernel — strided
// gathers from pinned memory, atomic mins into a GPU array, a scalar flag
// store — on a fresh device with the given worker count and returns the
// launch stats, the monitor snapshot, the recorded trace, and the final
// contents of the relax target.
func launchStatsForWorkers(t *testing.T, workers int) (*KernelStats, pcie.Snapshot, []pcie.TraceEntry, []uint32) {
	t.Helper()
	d := NewDevice(Config{
		Name:    fmt.Sprintf("w%d", workers),
		Workers: workers,
		Tiers:   v100Tiers(0, 0),
	})
	d.Monitor().EnableTrace(4096)
	const n = 1 << 12
	edges := d.Arena().MustAlloc("edges", memsys.SpaceHostPinned, n*8)
	vals := d.Arena().MustAlloc("vals", memsys.SpaceGPU, n*4, memsys.WithElem(4))
	flag := d.Arena().MustAlloc("flag", memsys.SpaceGPU, 4, memsys.WithElem(4))
	for i := int64(0); i < n; i++ {
		edges.PutU64(i, uint64((i*2654435761)%n))
		vals.PutU32(i, ^uint32(0))
	}
	warps := n / WarpSize
	ks := d.Launch("mixed", warps, func(w *Warp) {
		base := int64(w.ID()) * WarpSize
		var idx [WarpSize]int64
		for l := 0; l < WarpSize; l++ {
			idx[l] = base + int64(l)
		}
		dst := w.GatherU64(edges, &idx, MaskFull)
		var tgt [WarpSize]int64
		var cand [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			tgt[l] = int64(dst[l])
			cand[l] = uint32(w.ID())
		}
		w.AtomicMinU32(vals, &tgt, &cand, MaskFull)
		w.AtomicOrScalarU32(flag, 0, 1)
	})
	out := make([]uint32, n)
	for i := int64(0); i < n; i++ {
		out[i] = vals.U32(i)
	}
	return ks, d.Monitor().Snapshot(), d.Monitor().Trace(), out
}

// TestLaunchWorkerEquivalence checks the engine contract directly at the
// gpu layer: stats, clock, monitor counters, trace order, and functional
// buffer contents are identical for 1, 2, 5, and 8 workers.
func TestLaunchWorkerEquivalence(t *testing.T) {
	refKS, refSnap, refTrace, refVals := launchStatsForWorkers(t, 1)
	if refKS.PCIeRequests == 0 || refKS.HBMBytes == 0 {
		t.Fatalf("reference kernel produced no traffic: %+v", refKS)
	}
	for _, workers := range []int{2, 5, 8} {
		ks, snap, trace, vals := launchStatsForWorkers(t, workers)
		ksCopy, refCopy := *ks, *refKS
		ksCopy.Name, refCopy.Name = "", ""
		if ksCopy != refCopy {
			t.Errorf("workers=%d stats differ:\nserial:   %+v\nparallel: %+v", workers, refCopy, ksCopy)
		}
		if snap.Requests != refSnap.Requests || snap.PayloadBytes != refSnap.PayloadBytes ||
			snap.WireBytes != refSnap.WireBytes || snap.AvgBandwidth != refSnap.AvgBandwidth ||
			len(snap.BySize) != len(refSnap.BySize) {
			t.Errorf("workers=%d monitor counters differ: %+v vs %+v", workers, refSnap, snap)
		}
		for size, count := range refSnap.BySize {
			if snap.BySize[size] != count {
				t.Errorf("workers=%d monitor BySize[%d] = %d, want %d", workers, size, snap.BySize[size], count)
			}
		}
		if len(trace) != len(refTrace) {
			t.Fatalf("workers=%d trace length %d, want %d", workers, len(trace), len(refTrace))
		}
		for i := range refTrace {
			if trace[i] != refTrace[i] {
				t.Fatalf("workers=%d trace[%d] = %+v, want %+v (arrival order)", workers, i, trace[i], refTrace[i])
			}
		}
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("workers=%d vals[%d] = %d, want %d", workers, i, vals[i], refVals[i])
			}
		}
	}
}

// uvmLaunchCase is one UVM configuration for TestUVMLaunchShardedEquivalence.
type uvmLaunchCase struct {
	name       string
	gpuDriven  bool
	cxlHomes   bool // home every other segment of the UVM buffer on a CXL tier
	capacity   int  // UVM capacity in pages; -1 keeps the device's (ample) capacity
	warps      [2]int
	traceLimit int
	truncated  bool // the trace limit is meant to cut the trace mid-launch
}

// uvmLaunchOutcome is everything a UVM launch sequence reports.
type uvmLaunchOutcome struct {
	ks       []KernelStats
	snap     pcie.Snapshot
	classes  [2]uint64 // UVM and CXL class payload bytes
	trace    []pcie.TraceEntry
	dropped  uint64
	uvm      uvm.Stats
	resident int
	clock    time.Duration
	workers  int // most workers any launch used
}

// runUVMLaunches runs two launches mixing UVM and zero-copy traffic on a
// fresh device: per warp, a sweep of one UVM page (consecutive same-page
// touches, which shard logs fold), a zero-copy gather (trace entries the
// deferred migrations must interleave with), a revisit of the swept page
// (same page, but not foldable across the traced requests), and a
// scattered UVM gather (faults, prefetch blocks, and evictions under a
// small capacity).
func runUVMLaunches(t *testing.T, c uvmLaunchCase, workers int) uvmLaunchOutcome {
	t.Helper()
	tiers := v100Tiers(1<<30, 0)
	if c.cxlHomes {
		tiers = memsys.ThreeTierCXL(tiers, 0)
	}
	d := NewDevice(Config{Name: c.name, Workers: workers, Tiers: tiers, GPUDrivenPaging: c.gpuDriven})
	tel := &countingTelemetry{}
	d.SetTelemetry(tel)
	if c.capacity >= 0 {
		d.UVM().SetCapacityPages(c.capacity)
	}
	if c.traceLimit > 0 {
		d.Monitor().EnableTrace(c.traceLimit)
	}
	const n = 1 << 16 // 128 pages of uint64
	var opts []memsys.AllocOption
	if c.cxlHomes {
		homes := make([]memsys.Space, n*8/memsys.SegmentBytes)
		for i := range homes {
			homes[i] = memsys.SpaceHostPinned
			if i%2 == 1 {
				homes[i] = memsys.SpaceCXL
			}
		}
		opts = append(opts, memsys.WithSegmentHomes(homes))
	}
	ubuf := d.Arena().MustAlloc("uvm", memsys.SpaceUVM, n*8, opts...)
	zbuf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, n*8)
	const perPage = memsys.PageBytes / 8
	body := func(w *Warp) {
		id := int64(w.ID())
		var idx [WarpSize]int64
		page := (id * 37) % (n / perPage)
		for k := int64(0); k < 4; k++ {
			for l := range idx {
				idx[l] = page*perPage + k*WarpSize + int64(l)
			}
			w.GatherU64(ubuf, &idx, MaskFull)
		}
		for l := range idx {
			idx[l] = (id*WarpSize + int64(l)) % n
		}
		w.GatherU64(zbuf, &idx, MaskFull)
		for l := range idx {
			idx[l] = page*perPage + int64(l)
		}
		w.GatherU64(ubuf, &idx, MaskFull)
		for l := range idx {
			idx[l] = ((id*WarpSize + int64(l)) * 2654435761) % n
		}
		w.GatherU64(ubuf, &idx, MaskFull)
	}
	var out uvmLaunchOutcome
	for _, warps := range c.warps {
		ks := d.Launch("uvm-mixed", warps, body)
		out.ks = append(out.ks, *ks)
		out.workers = max(out.workers, tel.lastWorkers)
	}
	mon := d.Monitor()
	out.snap = mon.Snapshot()
	out.classes = [2]uint64{mon.ClassBytes(pcie.ClassUVM), mon.ClassBytes(pcie.ClassCXL)}
	out.trace = append(out.trace, mon.Trace()...)
	out.dropped = mon.TraceDropped()
	out.uvm = d.UVM().Stats()
	out.resident = d.UVM().Resident()
	out.clock = d.Clock()
	return out
}

// TestUVMLaunchShardedEquivalence checks that UVM launches shard across
// workers and stay bit-for-bit identical to the one-worker launch: kernel
// stats (float roofline seconds included), monitor counters, the full
// request trace, UVM manager stats and residency, and the clock. The cases
// cover both paging models, a CXL-homed UVM buffer, a bouncing
// zero-capacity manager, capacities below and above one prefetch block
// (the block evicts its own page, or evicts across warps), and a trace
// truncated mid-launch. Under -race it also proves the deferred
// page-table touches never run concurrently with shard 0's direct ones.
func TestUVMLaunchShardedEquivalence(t *testing.T) {
	for _, c := range []uvmLaunchCase{
		{name: "cpu-paging", capacity: -1, warps: [2]int{96, 61}, traceLimit: 1 << 16},
		{name: "gpu-paging", gpuDriven: true, capacity: -1, warps: [2]int{96, 61}, traceLimit: 1 << 16},
		{name: "cxl-homed", gpuDriven: true, cxlHomes: true, capacity: -1, warps: [2]int{96, 61}, traceLimit: 1 << 16},
		{name: "bounce", capacity: 0, warps: [2]int{12, 7}, traceLimit: 1 << 20},
		{name: "block-evicts-own-page", capacity: 16, warps: [2]int{12, 7}, traceLimit: 1 << 20},
		{name: "oversubscribed", capacity: 80, warps: [2]int{96, 61}},
		{name: "trace-truncated", gpuDriven: true, capacity: 80, warps: [2]int{96, 61}, traceLimit: 5000, truncated: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := runUVMLaunches(t, c, 1)
			if ref.uvm.Migrations == 0 || ref.ks[0].PCIeRequests == 0 {
				t.Fatalf("reference launches moved no UVM pages or no zero-copy data: %+v", ref.ks[0])
			}
			if c.traceLimit > 0 && (ref.dropped > 0) != c.truncated {
				t.Fatalf("reference trace dropped %d entries at limit %d", ref.dropped, c.traceLimit)
			}
			for _, workers := range []int{2, 3, 8} {
				got := runUVMLaunches(t, c, workers)
				if got.workers < 2 {
					t.Errorf("workers=%d: launches used %d worker(s); UVM launches must shard", workers, got.workers)
				}
				for i := range ref.ks {
					if got.ks[i] != ref.ks[i] {
						t.Errorf("workers=%d launch %d stats differ:\nserial:  %+v\nsharded: %+v", workers, i, ref.ks[i], got.ks[i])
					}
				}
				if got.snap.String() != ref.snap.String() || got.snap.AvgBandwidth != ref.snap.AvgBandwidth {
					t.Errorf("workers=%d monitor differs:\nserial:  %v\nsharded: %v", workers, ref.snap, got.snap)
				}
				if got.classes != ref.classes {
					t.Errorf("workers=%d UVM/CXL class bytes %v, want %v", workers, got.classes, ref.classes)
				}
				if got.uvm != ref.uvm || got.resident != ref.resident {
					t.Errorf("workers=%d UVM manager %+v resident %d, want %+v resident %d",
						workers, got.uvm, got.resident, ref.uvm, ref.resident)
				}
				if got.clock != ref.clock {
					t.Errorf("workers=%d clock %v, want %v", workers, got.clock, ref.clock)
				}
				if got.dropped != ref.dropped || len(got.trace) != len(ref.trace) {
					t.Fatalf("workers=%d trace kept %d dropped %d, want %d and %d",
						workers, len(got.trace), got.dropped, len(ref.trace), ref.dropped)
				}
				for i := range ref.trace {
					if got.trace[i] != ref.trace[i] {
						t.Fatalf("workers=%d trace[%d] = %+v, want %+v (arrival order)", workers, i, got.trace[i], ref.trace[i])
					}
				}
			}
		})
	}
}

// TestSerialOption checks the explicit opt-out: a body that mutates plain
// host state without atomics must be safe when launched with Serial().
func TestSerialOption(t *testing.T) {
	d := NewDevice(Config{
		Name:    "serial-opt",
		Workers: 8,
		Tiers:   v100Tiers(0, 0),
	})
	const warps = 1024
	order := make([]int, 0, warps)
	d.Launch("ordered", warps, func(w *Warp) {
		order = append(order, w.ID())
	}, Serial())
	if len(order) != warps {
		t.Fatalf("serial launch ran %d warps, want %d", len(order), warps)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("serial launch order[%d] = %d, want ascending IDs", i, id)
		}
	}
}
