package gpu

import (
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// This file keeps UVM launches shardable. The UVM manager's LRU residency
// is the one piece of launch state whose outcome depends on access order:
// whether a touch migrates pages, and which page an eviction drops, depends
// on every touch before it. Nothing reads residency during a launch — no
// kernel branches on it, and routing never consults it — so the touches can
// be applied late, as long as they are applied in serial order:
//
//   - Shard 0's warps come first in serial order, so its worker applies its
//     touches directly (touchUVM). With one worker that is the whole launch.
//   - Shards 1..n-1 append each touch to a per-shard log (uvmLog) and count
//     only the order-independent part, the HBM bytes, in the worker.
//   - At the launch barrier Device.replayUVM applies the logs in ascending
//     shard order. Shards are contiguous warp ranges, so that is the serial
//     order: migration counts, the float wire/tag/serial seconds (summed
//     straight into the launch stats), and the monitor trace (each deferred
//     bulk record spliced in at its arrival position) are bit-identical to a
//     one-worker launch.

// uvmTouch is one deferred UVM access.
type uvmTouch struct {
	buf  *memsys.Buffer
	off  int64
	size int32

	// reps counts further touches of the same single page folded into
	// this record.
	reps int32

	// trace is the shard monitor's TraceOffered when the touch was issued:
	// the arrival position its migration records take in the merged trace.
	trace uint64
}

// uvmLog is a launch shard's ordered record of deferred UVM touches. Its
// backing array persists across launches, so steady-state launches append
// without allocating.
type uvmLog struct {
	touches []uvmTouch
}

// reset empties the log for a launch.
func (l *uvmLog) reset() { l.touches = l.touches[:0] }

// page returns the single page the access [off, off+size) lies in, or -1
// when it spans two.
func (l *uvmLog) page(off int64, size int) int64 {
	p := off / memsys.PageBytes
	if (off+int64(size)-1)/memsys.PageBytes != p {
		return -1
	}
	return p
}

// add records one touch. A touch of the same single page as the previous
// record, with no traced request in between, folds into that record.
func (l *uvmLog) add(buf *memsys.Buffer, off int64, size int, trace uint64) {
	if n := len(l.touches); n > 0 {
		last := &l.touches[n-1]
		if last.buf == buf && last.trace == trace && last.reps < 1<<30 {
			if p := l.page(off, size); p >= 0 && p == l.page(last.off, int(last.size)) {
				last.reps++
				return
			}
		}
	}
	l.touches = append(l.touches, uvmTouch{buf: buf, off: off, size: int32(size), trace: trace})
}

// touchUVM applies one UVM access to the page table and accounts the
// migration traffic and time it caused into ks and mon. The caller counts
// the access's HBM bytes. Touches must reach touchUVM in serial order (see
// the file comment).
func (d *Device) touchUVM(ks *KernelStats, mon *pcie.Monitor, buf *memsys.Buffer, off int64, size int) {
	pb := int64(memsys.PageBytes)
	pagesTouched := int((off+int64(size)-1)/pb - off/pb + 1)
	migrated := d.uvmgr.Touch(buf, off, size)
	if migrated > 0 {
		bytes := d.uvmgr.MigrationWireBytes(migrated)
		ks.UVMMigrations += uint64(migrated)
		// Pages migrate over the link of the tier the segment is homed
		// on: host DRAM behind PCIe, or the CXL expander behind its own
		// link.
		lnk := d.link
		fromCXL := buf.HomeAt(off) == memsys.SpaceCXL
		if fromCXL {
			lnk = d.cxl.Link
			ks.CXLPayloadBytes += uint64(bytes)
			ks.CXLWireSeconds += lnk.BulkSeconds(bytes)
			ks.CXLMemBytes += uint64(bytes)
			mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassCXL)
		} else {
			ks.PCIePayloadBytes += uint64(bytes)
			ks.WireSeconds += lnk.BulkSeconds(bytes)
			ks.HostDRAMBytes += uint64(bytes)
			mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassUVM)
		}
		if d.uvmgr.Config().GPUDriven {
			// GPU-driven paging (GPUVM): the device posts the page
			// reads itself, so they cost link tag occupancy — one
			// full-size request per 128 bytes — instead of waiting on
			// the CPU handler. UVM throughput then scales with the
			// interconnect.
			tagOcc := float64(migrated) * float64(pb/128) * lnk.TagSeconds()
			if fromCXL {
				ks.CXLTagSeconds += tagOcc
			} else {
				ks.TagSeconds += tagOcc
			}
		} else {
			// The single-threaded UVM driver serializes fault handling
			// with the page transfer (§2.2): the pipeline term is
			// handler cost plus transfer time per page, which is what
			// keeps UVM at ~9.1 GB/s even though the wire could do 12.3
			// (Figure 4) and what prevents UVM from scaling to PCIe 4.0
			// (Figure 12).
			ks.UVMSerialSeconds += d.uvmgr.FaultCPUTime(migrated).Seconds() +
				lnk.BulkSeconds(bytes)
		}
	}
	ks.UVMHits += uint64(pagesTouched - migrated)
}

// replayUVM merges a deferred shard's monitor into the device monitor and
// applies its logged touches into the launch stats ks, splicing each
// touch's migration records into the trace at the touch's arrival position.
// The launch barrier calls it once per shard 1..n-1, in ascending order.
func (d *Device) replayUVM(ks *KernelStats, sh *launchShard) {
	d.mon.MergeCounters(&sh.mon)
	pos := uint64(0)
	for i := range sh.uvm.touches {
		t := &sh.uvm.touches[i]
		d.mon.MergeTrace(&sh.mon, pos, t.trace)
		pos = t.trace
		d.touchUVM(ks, &d.mon, t.buf, t.off, int(t.size))
		for r := int(t.reps); r > 0; r-- {
			if d.uvmgr.Rehit(t.buf, t.off/memsys.PageBytes, r) {
				ks.UVMHits += uint64(r)
				break
			}
			d.touchUVM(ks, &d.mon, t.buf, t.off, int(t.size))
		}
	}
	d.mon.MergeTrace(&sh.mon, pos, sh.mon.TraceOffered())
}
