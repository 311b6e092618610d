package core

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// This file defines the pluggable transport-policy layer. EMOGI's original
// design makes the host-to-GPU transport one global, load-time choice (the
// Transport enum: zero-copy vs. UVM). HyTGraph (PAPERS.md) shows the right
// choice is per-partition and per-iteration: dense partitions are cheaper to
// copy wholesale, sparse ones are cheaper to read on demand, and the winner
// changes as the frontier moves. A TransportPolicy makes that decision —
// the engine partitions the edge list into fixed memsys.SegmentBytes
// segments, measures each partition's expected access density at every round
// boundary, and asks the policy which substrate each partition should be
// served from for the coming round. See DESIGN.md §15.

// Choice is the substrate a policy binds one partition to for one round.
type Choice uint8

const (
	// ChoiceZeroCopy serves the partition with per-request pinned-host
	// reads (EMOGI's optimized transport).
	ChoiceZeroCopy Choice = iota
	// ChoiceUVM serves the partition through demand page migration.
	ChoiceUVM
	// ChoiceStaged serves the partition from an explicit batched copy in
	// GPU memory, uploaded at the round boundary that chose it.
	ChoiceStaged
	// ChoiceHostCached serves a CXL-homed partition from a host-DRAM copy:
	// a one-time bulk read over the CXL link promotes the segment into
	// DRAM, after which it is read zero-copy at PCIe rates. Only
	// meaningful on three-tier systems; policies never choose it for
	// DRAM-homed partitions.
	ChoiceHostCached

	numChoices
)

// String returns the substrate label used in metrics and traces.
func (c Choice) String() string {
	switch c {
	case ChoiceZeroCopy:
		return "zerocopy"
	case ChoiceUVM:
		return "uvm"
	case ChoiceStaged:
		return "staged"
	case ChoiceHostCached:
		return "dram"
	default:
		return fmt.Sprintf("choice(%d)", uint8(c))
	}
}

// PartitionStats is one partition's access-density snapshot for the round
// about to execute, computed host-side from the frontier (the same
// information a real implementation gets from its frontier inspection pass).
type PartitionStats struct {
	// Bytes is the partition length (SegmentBytes except the tail).
	Bytes int64
	// AccessedBytes is the expected edge-list bytes the coming round reads
	// from this partition: the summed overlap of every frontier vertex's
	// neighbor-list byte range with the partition, rounded to the 32B
	// sector transaction granule — the payload a zero-copy round would
	// actually put on the wire, amplification included.
	AccessedBytes int64
	// Requests is the expected number of coalesced zero-copy PCIe requests
	// the coming round issues against this partition (one per 128B cache
	// line touched per frontier vertex). Zero-copy streams of small
	// requests are tag-limited, not wire-limited (paper §3.3), so request
	// count — not bytes — is what dominates skewed-graph cost.
	Requests int64
	// MaxVertexRequests is the largest request count any single frontier
	// vertex contributes to Requests — the partition's share of the busiest
	// warp's latency critical path. One warp walks one vertex's neighbor
	// list with a bounded number of reads in flight, so a hub vertex
	// serializes on round trips no matter how idle the wire is; on skewed
	// graphs this term, not bytes or tags, is the real zero-copy cost.
	MaxVertexRequests int64
	// ActiveVertices counts frontier vertices whose neighbor list starts in
	// this partition.
	ActiveVertices int
	// CXLHome reports that the partition's backing bytes live on the
	// external CXL-class tier (a three-tier placement spilled it there).
	// Its in-place read and migration costs then use the CXL constants of
	// CostParams, and ChoiceHostCached becomes available.
	CXLHome bool
}

// DensityClass buckets a partition's predicted density for metrics:
// "cold" (no expected accesses), "hot" (expected bytes cover the whole
// partition), "warm" (in between).
func (p PartitionStats) DensityClass() string {
	switch {
	case p.AccessedBytes == 0:
		return "cold"
	case p.AccessedBytes >= p.Bytes:
		return "hot"
	default:
		return "warm"
	}
}

// PartitionState is the engine-maintained binding state the policy sees.
type PartitionState struct {
	// Choice is the substrate currently serving the partition.
	Choice Choice
	// Since is the round the current choice was adopted, or -1 while the
	// partition still sits on its load-time binding: a first move owes no
	// dwell (there is no prior decision to protect from thrashing), which
	// matters because the densest rounds of a traversal are the early ones.
	Since int
	// Staged reports whether the partition's explicit device copy is
	// resident (staying resident across rounds makes re-choosing staged
	// free; the copy is dropped when the partition leaves the substrate or
	// the run ends). It is the only record of staged residency.
	Staged bool
	// HostCached reports whether a CXL-homed partition's host-DRAM copy is
	// resident (re-choosing ChoiceHostCached is then free; leaving the
	// substrate drops the copy and re-entry pays the promotion again).
	HostCached bool
	// SpentSeconds is the estimated link time already paid reading this
	// partition zero-copy since its current binding was adopted — the
	// "rent paid so far" of the ski-rental rule. The engine accumulates it
	// each round a zero-copy-bound partition is accessed and resets it on
	// every binding change, so a policy can justify a one-time migration
	// (staging copy, page migration) against the recurring cost it ends:
	// traversals that re-read edges across rounds (SSSP/CC relaxation
	// sweeps) amortize the buy even when no single round does.
	SpentSeconds float64
}

// CostParams carries the platform-derived constants a policy's cost model
// needs. The engine fills it once per run from the device configuration, so
// Decide stays a pure function of its arguments.
type CostParams struct {
	// SegmentBytes is the partition granule.
	SegmentBytes int64
	// ZCBytesPerSec is the effective zero-copy streaming rate for
	// cache-line requests (wire + tag overhead included).
	ZCBytesPerSec float64
	// ZCSecondsPerRequest is the tag-occupancy cost of one outstanding
	// zero-copy read (RTT over the in-flight tag budget). A partition's
	// zero-copy cost is the larger of its wire time and its tag time,
	// mirroring the link's stream model.
	ZCSecondsPerRequest float64
	// CritSecondsPerRequest is the latency critical-path cost of one
	// host-memory request on the warp that issues it (RTT over the per-warp
	// outstanding-read budget). Multiplied by MaxVertexRequests it bounds
	// the serialization a hub vertex's warp imposes on a zero-copy round.
	CritSecondsPerRequest float64
	// BulkBytesPerSec is the explicit-copy (DMA) rate.
	BulkBytesPerSec float64
	// UVMBytesPerSec is the effective page-migration rate (transfer plus
	// serialized fault handling).
	UVMBytesPerSec float64
	// UVMChunkBytes is the migration amplification granule: touching a cold
	// UVM-bound partition drags in at least this many bytes (the driver's
	// aligned prefetch block).
	UVMChunkBytes int64
	// StagedBudgetBytes caps the total bytes of explicitly staged segments
	// (GPU memory left after allocations, with headroom). Negative means
	// unlimited.
	StagedBudgetBytes int64
	// UVMBudgetBytes is the page cache capacity backing UVM-bound
	// partitions. Binding more than this does not fail — the driver's LRU
	// silently evicts — but residency stops being sticky: every round
	// re-migrates chunks, so an over-budget UVM incumbent costs its
	// migration again instead of zero. Negative means unlimited.
	UVMBudgetBytes int64

	// CXL-tier constants, the external-link analogues of the fields above.
	// All zero on two-tier systems, where no partition is CXL-homed and
	// they are never read.

	// CXLBytesPerSec is the effective in-place read rate for cache-line
	// requests over the CXL link.
	CXLBytesPerSec float64
	// CXLSecondsPerRequest is the CXL link's tag-occupancy cost per
	// outstanding read. The microsecond RTT makes this the dominant
	// in-place cost for sparse access.
	CXLSecondsPerRequest float64
	// CXLCritSecondsPerRequest is the per-warp latency critical-path cost
	// of one CXL request.
	CXLCritSecondsPerRequest float64
	// CXLBulkBytesPerSec is the CXL link's bulk (DMA) rate, paid by
	// staging copies and host-cache promotions out of the tier.
	CXLBulkBytesPerSec float64
	// CXLUVMBytesPerSec is the effective page-migration rate out of the
	// CXL tier.
	CXLUVMBytesPerSec float64
	// HostCacheBudgetBytes caps the total bytes of CXL-homed partitions
	// promoted into host DRAM copies. Negative means unlimited.
	HostCacheBudgetBytes int64
}

// TransportPolicy decides, per partition per round, which substrate serves
// each edge-list partition. Decide must be a pure function of its arguments
// — no clocks, no randomness, no retained state — so decision sequences
// replay identically across retries and are independent of host worker
// count (the determinism suite pins this).
type TransportPolicy interface {
	// Name is the stable registry identifier ("static-zc", "static-uvm",
	// "adaptive").
	Name() string
	// Description is a one-line human summary for /v1/transports.
	Description() string
	// Static returns the fixed transport the policy binds everything to for
	// the whole run, with ok true; ok false means the policy is routed:
	// decisions are per partition per round through Decide.
	Static() (t Transport, ok bool)
	// Decide writes one Choice per partition into out (len(out) ==
	// len(parts) == len(state)). round is the round about to execute.
	Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice)
}

// policyBase returns the space a policy's graph buffers are allocated in:
// the static transport for static policies, pinned host memory for routed
// ones (routing rebinds segments at run time on top of the pinned base).
func policyBase(p TransportPolicy) Transport {
	if t, ok := p.Static(); ok {
		return t
	}
	return ZeroCopy
}

// staticPolicy reproduces the pre-policy behavior for one Transport. Loaded
// under it, a graph takes exactly the historical code path: no router, no
// density accounting, no per-round decisions (golden-pinned bit-for-bit).
// Used as an override on a graph whose base transport differs, it degrades
// gracefully to a routed run that binds every partition to its transport.
type staticPolicy struct {
	t Transport
}

func (s staticPolicy) Name() string {
	if s.t == UVM {
		return "static-uvm"
	}
	return "static-zc"
}

func (s staticPolicy) Description() string {
	if s.t == UVM {
		return "edge list in managed memory; 4KB pages migrate on first touch (the paper's UVM baseline)"
	}
	return "edge list pinned in host memory; every access is a coalesced zero-copy PCIe read (EMOGI)"
}

func (s staticPolicy) Static() (Transport, bool) { return s.t, true }

func (s staticPolicy) Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice) {
	c := ChoiceZeroCopy
	if s.t == UVM {
		c = ChoiceUVM
	}
	for i := range out {
		out[i] = c
	}
}

// StaticPolicyFor returns the static policy reproducing the given
// transport's historical behavior.
func StaticPolicyFor(t Transport) TransportPolicy { return staticPolicy{t} }

// adaptivePolicy implements the HyTGraph rule: per partition, compare the
// estimated transfer cost of each substrate against the bytes the coming
// round is expected to access, and pick the cheapest — with hysteresis (a
// dwell time plus a switch margin) so oscillating frontiers don't thrash
// partitions between substrates. The explicit-copy substrate is bounded by
// a staged-bytes budget (free GPU memory); dense partitions that overflow
// the budget fall back to the next-cheapest substrate.
type adaptivePolicy struct{}

// The adaptive rule's hysteresis. They belong to the policy, not to the
// platform, so they are not part of CostParams.
const (
	// adaptiveHoldRounds is the dwell: a partition keeps its substrate for
	// at least this many rounds before switching again.
	adaptiveHoldRounds = 2
	// adaptiveSwitchMargin is the margin: a new substrate must beat the
	// current one's estimated cost by this factor to displace it.
	adaptiveSwitchMargin = 1.25
)

func (adaptivePolicy) Name() string { return "adaptive" }

func (adaptivePolicy) Description() string {
	return "per-partition cost model rebinds edge segments between zero-copy, UVM, and explicit staging each round (HyTGraph-style)"
}

func (adaptivePolicy) Static() (Transport, bool) { return ZeroCopy, false }

// cost returns the estimated time for one partition to serve the coming
// round's AccessedBytes through each substrate. uvmThrash reports that the
// UVM-bound working set exceeds the page cache, so an incumbent's residency
// cannot be trusted: it pays its chunk migration every round like a
// newcomer. CXL-homed partitions price their in-place reads, staging
// copies, and page migrations with the CXL-tier constants; cached is the
// host-cache substrate's cost (promotion plus DRAM-rate reads), +Inf for
// DRAM-homed partitions, which have nothing to promote.
func adaptiveCosts(p PartitionStats, st PartitionState, costs CostParams, uvmThrash bool) (zc, staged, uvmc, cached float64) {
	zcRate, tagSec, critSec := costs.ZCBytesPerSec, costs.ZCSecondsPerRequest, costs.CritSecondsPerRequest
	bulkRate, uvmRate := costs.BulkBytesPerSec, costs.UVMBytesPerSec
	if p.CXLHome {
		zcRate, tagSec, critSec = costs.CXLBytesPerSec, costs.CXLSecondsPerRequest, costs.CXLCritSecondsPerRequest
		bulkRate, uvmRate = costs.CXLBulkBytesPerSec, costs.CXLUVMBytesPerSec
	}
	// In-place reads: a pipelined request stream finishes when the wire, the
	// tag window, and the busiest warp's latency chain all drain — max of
	// the three occupancies. Uniform graphs are wire- or tag-bound; skewed
	// graphs are bound by the hub warp's serialized round trips.
	zc = float64(p.AccessedBytes) / zcRate
	if tag := float64(p.Requests) * tagSec; tag > zc {
		zc = tag
	}
	if crit := float64(p.MaxVertexRequests) * critSec; crit > zc {
		zc = crit
	}
	if st.Staged {
		staged = 0 // copy already resident: served from HBM
	} else {
		staged = float64(p.Bytes) / bulkRate
	}
	if st.Choice == ChoiceUVM && !uvmThrash {
		uvmc = 0 // pages migrated when the partition was bound: served from HBM
	} else {
		chunk := costs.UVMChunkBytes
		if chunk < p.Bytes {
			chunk = p.Bytes
		}
		uvmc = float64(chunk) / uvmRate
	}
	if !p.CXLHome {
		cached = math.Inf(1)
	} else {
		// Host cache: DRAM-rate zero-copy reads, plus — when the copy is
		// not already resident — the one-time bulk promotion over the CXL
		// link.
		cached = float64(p.AccessedBytes) / costs.ZCBytesPerSec
		if tag := float64(p.Requests) * costs.ZCSecondsPerRequest; tag > cached {
			cached = tag
		}
		if crit := float64(p.MaxVertexRequests) * costs.CritSecondsPerRequest; crit > cached {
			cached = crit
		}
		if !st.HostCached {
			cached += float64(p.Bytes) / costs.CXLBulkBytesPerSec
		}
	}
	return zc, staged, uvmc, cached
}

func (adaptivePolicy) Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice) {
	// UVM residency check: when more bytes are UVM-bound than the page
	// cache holds, the LRU is thrashing — incumbents pay migration every
	// round, and escaping that is an emergency the dwell must not block.
	var uvmBound int64
	for i := range state {
		if state[i].Choice == ChoiceUVM {
			uvmBound += parts[i].Bytes
		}
	}
	uvmThrash := costs.UVMBudgetBytes >= 0 && uvmBound > costs.UVMBudgetBytes
	// Phase 1: per-partition desired substrate by cost, with hysteresis
	// against the current binding.
	type stager struct {
		idx int
		acc int64
	}
	var wantStaged, wantCached []stager
	for i := range parts {
		st := state[i]
		out[i] = st.Choice
		dwellOK := st.Since < 0 || round-st.Since >= adaptiveHoldRounds ||
			(st.Choice == ChoiceUVM && uvmThrash)
		if parts[i].AccessedBytes == 0 {
			// Cold partition: after the dwell, release non-zero-copy
			// bindings so staged budget, host-cache budget, and UVM
			// capacity go to live ones.
			if st.Choice != ChoiceZeroCopy && dwellOK {
				out[i] = ChoiceZeroCopy
			}
			if out[i] == ChoiceStaged {
				// A cold staged incumbent still occupies budget; phase 2
				// must see it or new admissions overflow the cap. Zero
				// density sorts it behind every live resident, so it is
				// the first evicted when the budget tightens.
				wantStaged = append(wantStaged, stager{i, 0})
			}
			if out[i] == ChoiceHostCached {
				wantCached = append(wantCached, stager{i, 0})
			}
			continue
		}
		zc, staged, uvmc, cached := adaptiveCosts(parts[i], st, costs, uvmThrash)
		cur := zc
		switch st.Choice {
		case ChoiceStaged:
			cur = staged
		case ChoiceUVM:
			cur = uvmc
		case ChoiceHostCached:
			cur = cached
		}
		// Ski-rental: a zero-copy incumbent is charged the rent it has
		// already paid on top of this round's, so a one-time buy (staging
		// copy, page migration, host-cache promotion) wins once the
		// recurring reads it would end have accumulated past it — the
		// cross-round reuse a single-round comparison cannot see.
		if st.Choice == ChoiceZeroCopy {
			cur += st.SpentSeconds
		}
		best, bestCost := st.Choice, cur
		// Fixed evaluation order keeps ties deterministic; a challenger must
		// beat the incumbent by the margin, and only after the dwell. The
		// host-cache candidate exists only for CXL-homed partitions (it is
		// +Inf otherwise, so listing it unconditionally is safe and keeps
		// the order fixed).
		for _, cand := range [...]struct {
			c    Choice
			cost float64
		}{{ChoiceZeroCopy, zc}, {ChoiceStaged, staged}, {ChoiceUVM, uvmc}, {ChoiceHostCached, cached}} {
			if cand.c == st.Choice {
				continue
			}
			if cand.cost*adaptiveSwitchMargin < bestCost && dwellOK {
				best, bestCost = cand.c, cand.cost
			}
		}
		out[i] = best
		if best == ChoiceStaged {
			wantStaged = append(wantStaged, stager{i, parts[i].AccessedBytes})
		}
		if best == ChoiceHostCached {
			wantCached = append(wantCached, stager{i, parts[i].AccessedBytes})
		}
	}
	// budgetSort orders admission candidates: already-resident copies keep
	// their slot first (stability); new admissions go densest-first.
	budgetSort := func(want []stager, resident func(i int) bool) {
		sort.Slice(want, func(a, b int) bool {
			sa, sb := want[a], want[b]
			ra, rb := resident(sa.idx), resident(sb.idx)
			if ra != rb {
				return ra
			}
			if sa.acc != sb.acc {
				return sa.acc > sb.acc
			}
			return sa.idx < sb.idx
		})
	}
	// Phase 2: enforce the staged budget.
	if costs.StagedBudgetBytes >= 0 {
		budgetSort(wantStaged, func(i int) bool { return state[i].Staged })
		var used int64
		for _, s := range wantStaged {
			if used+parts[s.idx].Bytes <= costs.StagedBudgetBytes {
				used += parts[s.idx].Bytes
				continue
			}
			// Over budget: fall back to the cheaper of in-place reads and
			// UVM, charging a zero-copy incumbent its accumulated rent (the
			// same ski-rental comparison phase 1 applies).
			zc, _, uvmc, _ := adaptiveCosts(parts[s.idx], state[s.idx], costs, uvmThrash)
			if state[s.idx].Choice == ChoiceZeroCopy {
				zc += state[s.idx].SpentSeconds
			}
			if uvmc*adaptiveSwitchMargin < zc {
				out[s.idx] = ChoiceUVM
			} else if state[s.idx].Choice == ChoiceStaged {
				out[s.idx] = ChoiceZeroCopy
			} else {
				out[s.idx] = state[s.idx].Choice
			}
		}
	}
	// Phase 3: enforce the host-cache budget the same way; overflow falls
	// back to reading the partition in place over the CXL link.
	if costs.HostCacheBudgetBytes >= 0 {
		budgetSort(wantCached, func(i int) bool { return state[i].HostCached })
		var used int64
		for _, s := range wantCached {
			if out[s.idx] != ChoiceHostCached {
				continue // phase 2 already rerouted it
			}
			if used+parts[s.idx].Bytes <= costs.HostCacheBudgetBytes {
				used += parts[s.idx].Bytes
				continue
			}
			zc, _, uvmc, _ := adaptiveCosts(parts[s.idx], state[s.idx], costs, uvmThrash)
			if state[s.idx].Choice == ChoiceZeroCopy {
				zc += state[s.idx].SpentSeconds
			}
			if uvmc*adaptiveSwitchMargin < zc {
				out[s.idx] = ChoiceUVM
			} else if state[s.idx].Choice == ChoiceHostCached {
				out[s.idx] = ChoiceZeroCopy
			} else {
				out[s.idx] = state[s.idx].Choice
			}
		}
	}
}

// AdaptivePolicy returns the HyTGraph-style cost-model policy.
func AdaptivePolicy() TransportPolicy { return adaptivePolicy{} }

// TransportPolicies returns the selectable policies in a fixed order (the
// order /v1/transports lists them in).
func TransportPolicies() []TransportPolicy {
	return []TransportPolicy{
		StaticPolicyFor(ZeroCopy),
		StaticPolicyFor(UVM),
		AdaptivePolicy(),
	}
}

// PolicyByName resolves a policy by registry name.
func PolicyByName(name string) (TransportPolicy, error) {
	for _, p := range TransportPolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown transport policy %q (have static-zc, static-uvm, adaptive)", name)
}

// policyOverrideKey carries a per-run TransportPolicy override through
// context — how the service's degradation ladder reroutes a retry onto UVM
// without reloading the graph or threading a parameter through every
// registry entry point.
type policyOverrideKey struct{}

// WithPolicyOverride returns a context that makes traversal runs under it
// use p instead of the device graph's loaded policy. An override whose
// static base matches the graph's transport is a no-op; any other override
// runs routed (every partition bound per round by the override's Decide).
func WithPolicyOverride(ctx context.Context, p TransportPolicy) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, policyOverrideKey{}, p)
}

// PolicyOverrideFrom returns the override installed by WithPolicyOverride,
// or nil.
func PolicyOverrideFrom(ctx context.Context) TransportPolicy {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(policyOverrideKey{}).(TransportPolicy)
	return p
}

// effectivePolicy resolves the policy governing one run of dg under ctx and
// whether the run must be routed (per-partition runtime) rather than taking
// the static fast path. The fast path requires a static policy whose
// transport matches the space the graph was actually allocated in;
// everything else routes. memsys guarantees the router granule exists for
// any buffer, so routing needs no re-upload. A nil dg is a kernel that
// streams its own pinned layout (compressed, edge-centric): it always runs
// static-zc.
func effectivePolicy(ctx context.Context, dg *DeviceGraph) (pol TransportPolicy, routed bool) {
	if dg == nil {
		return StaticPolicyFor(ZeroCopy), false
	}
	pol = dg.Policy
	if o := PolicyOverrideFrom(ctx); o != nil {
		pol = o
	}
	if t, ok := pol.Static(); ok {
		return pol, t != policyBase(dg.Policy)
	}
	return pol, true
}
