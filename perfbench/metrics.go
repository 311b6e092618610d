package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The names, units and directions
// here are the ones BENCHMARK.json lists; the self-test keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a client of emogi-serve sees, printed with --trace 0.
// The open-loop latency percentiles are measured in the same run but
// listed with the per-layer metrics, which carry no regression bound:
// their run-to-run spread on a 2-vCPU host is wider than any usable bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"capacity_rps", "req/s", "higher"},
	{"sim_ms_p50", "ms", "lower"},
	{"sim_ms_p95", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"success_ratio", "ratio", "higher"},
}

// perLayer is printed with --trace 1. The first block comes from /metrics
// deltas over the untraced HTTP run's measured window, the second from the
// HTTP client, the third from the traced in-process replay.
var perLayer = []metricDef{
	{"service.queue_wait_ms_mean", "ms", "lower"},
	{"service.execute_ms_mean", "ms", "lower"},
	{"service.backoff_ms_total", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.retries", "count", "lower"},
	{"service.degraded_runs", "count", "lower"},
	{"fault.read_faults", "count", "lower"},
	{"core.runs", "count", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.decisions.zerocopy", "count", "higher"},
	{"core.decisions.uvm", "count", "lower"},
	{"core.decisions.staged", "count", "lower"},
	{"gpu.kernel_launches", "count", "lower"},
	{"gpu.warp_instrs", "count", "lower"},
	{"gpu.worker_utilization", "ratio", "higher"},
	{"gpu.zc_refetches", "count", "lower"},
	{"pcie.requests", "count", "lower"},
	{"pcie.payload_bytes", "B", "lower"},
	{"pcie.mean_request_bytes", "B", "higher"},
	{"pcie.payload_wire_ratio", "ratio", "higher"},
	{"memsys.host_dram_bytes", "B", "lower"},
	{"memsys.dram_amp", "ratio", "lower"},
	{"memsys.hbm_bytes", "B", "lower"},
	{"uvm.migrations", "count", "lower"},
	{"uvm.faults", "count", "lower"},
	{"uvm.evictions", "count", "lower"},
	{"uvm.page_hits", "count", "higher"},

	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"serve.error_ratio", "ratio", "lower"},
	{"serve.errors_429", "count", "lower"},
	{"serve.errors_503", "count", "lower"},
	{"serve.errors_504", "count", "lower"},
	{"serve.errors_other", "count", "lower"},
	{"loadgen.lag_ms_max", "ms", "lower"},

	{"graph.build_s", "s", "lower"},
	{"service.add_graph_s", "s", "lower"},
	{"service.do_ms_p50", "ms", "lower"},
	{"service.self_ms_mean", "ms", "lower"},
	{"core.run_host_ms_mean", "ms", "lower"},
	{"core.round_host_us_mean", "us", "lower"},
	{"core.self_ms_mean", "ms", "lower"},
	{"gpu.launch_host_ms_mean", "ms", "lower"},
	{"gpu.launch_host_share", "ratio", "lower"},
	{"core.decide_calls", "count", "lower"},
	{"core.decide_us_mean", "us", "lower"},
	{"core.decide_allocs_per_call", "count", "lower"},
	{"memsys.cxl_requests", "count", "lower"},
	{"memsys.cxl_mean_request_bytes", "B", "higher"},
	{"host.allocs_per_request", "count", "lower"},
	{"host.alloc_bytes_per_request", "B", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// quantile returns the nearest-rank p-quantile of xs (sorted in place).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerDeltas turns two /metrics snapshots into the window's per-layer
// metrics. gomaxprocs is the server's launch worker limit.
func layerDeltas(m0, m1 scrape, gomaxprocs int, into map[string]float64) {
	d := func(name string, match ...string) float64 { return m1.sum(name, match...) - m0.sum(name, match...) }
	into["service.queue_wait_ms_mean"] = 1e3 * ratio(d("emogi_serve_queue_wait_seconds_sum"), d("emogi_serve_queue_wait_seconds_count"))
	into["service.execute_ms_mean"] = 1e3 * ratio(d("emogi_serve_run_seconds_sum"), d("emogi_serve_run_seconds_count"))
	into["service.backoff_ms_total"] = 1e3 * d("emogi_request_stage_seconds_sum", `stage="backoff"`)
	hits, misses := d("emogi_serve_cache_hits_total"), d("emogi_serve_cache_misses_total")
	into["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	into["service.retries"] = d("emogi_retries_total")
	into["service.degraded_runs"] = d("emogi_degraded_runs_total")
	into["fault.read_faults"] = d("emogi_faults_injected_total", `kind="read"`)
	into["core.runs"] = d("emogi_runs_total")
	into["core.rounds"] = d("emogi_rounds_total")
	for _, c := range []string{"zerocopy", "uvm", "staged"} {
		into["core.decisions."+c] = d("emogi_transport_decisions_total", `choice="`+c+`"`)
	}
	launches := d("emogi_kernel_launches_total")
	into["gpu.kernel_launches"] = launches
	into["gpu.warp_instrs"] = d("emogi_warp_instructions_total")
	into["gpu.worker_utilization"] = ratio(d("emogi_launch_worker_shards_total"), launches*float64(gomaxprocs))
	into["gpu.zc_refetches"] = d("emogi_zc_refetches_total")
	reqs, payload := d("emogi_pcie_requests_total"), d("emogi_pcie_payload_bytes_total")
	into["pcie.requests"] = reqs
	into["pcie.payload_bytes"] = payload
	into["pcie.mean_request_bytes"] = ratio(payload, reqs)
	into["pcie.payload_wire_ratio"] = ratio(payload, d("emogi_pcie_wire_bytes_total"))
	dram := d("emogi_host_dram_bytes_total")
	into["memsys.host_dram_bytes"] = dram
	into["memsys.dram_amp"] = ratio(dram, payload)
	into["memsys.hbm_bytes"] = d("emogi_hbm_bytes_total")
	into["uvm.migrations"] = d("emogi_uvm_migrations_total")
	into["uvm.faults"] = d("emogi_uvm_faults_total")
	into["uvm.evictions"] = d("emogi_uvm_evictions_total")
	into["uvm.page_hits"] = d("emogi_uvm_page_hits_total")
}

// replayLayers derives the per-layer host metrics from the traced replay
// and the untraced replays before and after it, all of the same schedule.
func replayLayers(traced, before, after *replayResult, into map[string]float64) {
	t := traced.timer
	n := float64(len(traced.replies))
	into["graph.build_s"] = float64(traced.buildNS) / 1e9
	into["service.add_graph_s"] = float64(traced.addNS) / 1e9
	var do []float64
	var self, cxlReqs, cxlBytes float64
	for _, r := range traced.replies {
		do = append(do, float64(r.doNS)/1e6)
		self += float64(r.doNS-r.runNS) / 1e6
		cxlReqs += float64(r.cxlReqs)
		cxlBytes += float64(r.cxlBytes)
	}
	into["service.do_ms_p50"] = quantile(do, 0.5)
	into["service.self_ms_mean"] = self / n
	runs := float64(t.runs)
	into["core.run_host_ms_mean"] = ratio(float64(t.runNS)/1e6, runs)
	into["core.round_host_us_mean"] = ratio(float64(t.roundNS)/1e3, float64(t.rounds))
	into["core.self_ms_mean"] = ratio(float64(t.runNS-t.launchNS-t.decideNS)/1e6, runs)
	into["gpu.launch_host_ms_mean"] = ratio(float64(t.launchNS)/1e6, float64(t.launches))
	into["gpu.launch_host_share"] = ratio(float64(t.launchNS), float64(t.runNS))
	into["core.decide_calls"] = float64(t.decides)
	into["core.decide_us_mean"] = ratio(float64(t.decideNS)/1e3, float64(t.decides))
	into["core.decide_allocs_per_call"] = ratio(float64(t.decideAllocs), float64(t.decides))
	into["memsys.cxl_requests"] = cxlReqs
	into["memsys.cxl_mean_request_bytes"] = ratio(cxlBytes, cxlReqs)
	// Allocation counts come from the last untraced replay, so neither the
	// wrappers' span buffer nor first-run heap growth shows up as program
	// allocations.
	pn := float64(len(after.replies))
	into["host.allocs_per_request"] = float64(after.mallocs) / pn
	into["host.alloc_bytes_per_request"] = float64(after.allocB) / pn
	into["host.gc_cycles"] = float64(after.gcCycles)
	into["trace.overhead_ratio"] = 2 * float64(traced.wallNS) / float64(before.wallNS+after.wallNS)
}
