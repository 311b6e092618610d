// Command perfbench is the serving benchmark for emogi-serve. It builds
// cmd/emogi-serve from the source tree it runs in, starts the server for
// the chosen workload, and drives it over HTTP from this process: open-loop
// Poisson arrivals at the workload's fixed rate for latency, alternating
// with closed-loop bursts for capacity. Every 200 response's
// values_checksum is checked against the CPU reference computed before the
// timed phases.
//
//	bash perfbench/run.sh --workload hot-flaky --seed 1 --seconds 55 --trace 0
//
// With --trace 1 it prints per-layer metrics instead: /metrics deltas over
// the same HTTP run, plus a replay of the first open-loop requests
// in-process through service.Service.Do with forwarding timing wrappers
// attached (and, for the overhead ratio, detached).
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. A full report goes to .bench_build/perfbench/results.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	emogi "repro"
	"repro/internal/graph"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // source tree holding cmd/emogi-serve
	out      string // build outputs, logs, reports and spans
	setups   int    // server starts timed for setup_s
	// openRequests is the open-loop phase's request count; the rest of
	// --seconds is the closed-loop phase. The self-test lowers it.
	openRequests int
}

// The open-loop request count keeps at least 10 samples beyond p95. The
// run alternates open and closed phases in segments. Cycled distinct-source
// requests are cheap to check, while Zipf draws must not repeat a short
// cycle that the result cache would absorb.
const (
	openRequests = 220
	segments     = 4
	closedPool   = 256
	zipfPool     = 16384
	replayMax    = 128 // open-loop requests replayed in-process
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: table2-zc, hot-flaky or adaptive-cxl")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the graphs, schedules, sources and faults")
	flag.Float64Var(&o.seconds, "seconds", 55, "measured seconds, split between open-loop and closed-loop phases")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from the traced run instead of end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	o.root = "."
	o.out = filepath.Join(".bench_build", "perfbench")
	o.setups = 5
	o.openRequests = openRequests
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.summary.Correct {
		os.Exit(1)
	}
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the full record of one run, written beside the summary.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples"`
	// Metrics holds every end-to-end metric, the HTTP client's per-layer
	// metrics, and with --trace 1 every other per-layer metric.
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
	SimNS    []int64            `json:"open_loop_sim_ns"`
	LatMS    []float64          `json:"open_loop_latency_ms"` // -1 marks a failed request
	summary  summary
}

type hostInfo struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	LoadgenLagMS float64 `json:"loadgen_lag_ms_max"`
}

// run executes one benchmark invocation and returns its report. Errors
// are set-up failures (no result is printed for them); wrong answers are
// reported through summary.Correct.
func run(o options, stdout io.Writer) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	for _, sub := range []string{"logs", "results", "spans"} {
		if err := os.MkdirAll(filepath.Join(o.out, sub), 0o755); err != nil {
			return nil, err
		}
	}
	bin, err := buildServer(o.root, o.out)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host:    describeHost(o.root),
		Samples: map[string]int{},
		Metrics: map[string]float64{},
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, b2i(o.trace))

	// Inputs and CPU references, before any server starts.
	graphs := map[string]*emogi.Graph{}
	for _, name := range w.datasets() {
		g, err := emogi.BuildDataset(name, datasetScale, graphSeed(o.seed))
		if err != nil {
			return nil, err
		}
		graphs[name] = g
	}
	openSec := float64(o.openRequests) / w.rate
	closedSec := o.seconds - openSec
	if closedSec <= 0 {
		return nil, fmt.Errorf("--seconds %g leaves no closed-loop phase after %d open-loop requests at %g req/s",
			o.seconds, o.openRequests, w.rate)
	}
	pool := closedPool
	if w.hotKeys > 0 {
		pool = zipfPool
	}
	p := makePlan(w, graphs, o.seed, o.openRequests, pool)
	all := append([]query{}, p.warmup...)
	for _, a := range p.open {
		all = append(all, a.q)
	}
	all = append(all, p.closed...)
	refs := references(graphs, all)

	// Set-up time: several starts, median reported; the last one serves.
	var setups []float64
	var srv *server
	for i := 0; i < o.setups; i++ {
		s, err := startServer(bin, w, o.seed, filepath.Join(o.out, "logs", fmt.Sprintf("%s-%d.log", tag, i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < o.setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()
	rep.Metrics["setup_s"] = quantile(setups, 0.5)

	conns := 2
	if n := runtime.NumCPU(); n < conns {
		conns = n
	}
	c := newClient(srv.base, conns)
	defer c.close()
	var checked []sent
	for _, q := range p.warmup {
		r := c.traverse(q)
		if !r.ok() {
			return nil, fmt.Errorf("warm-up %s returned status %d", q.key(), r.status)
		}
		checked = append(checked, sent{q: q, r: r})
	}

	m0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	// The phases alternate in segments, so both sample the whole run's
	// host-speed drift instead of one stretch of it each.
	var open, closed []sent
	var lag, closedWall time.Duration
	var cursor atomic.Int64
	burst := time.Duration(closedSec / segments * float64(time.Second))
	for k := 0; k < segments; k++ {
		lo, hi := openSec*float64(k)/segments, openSec*float64(k+1)/segments
		var seg []arrival
		for _, a := range p.open {
			if a.at >= lo && a.at < hi {
				seg = append(seg, arrival{at: a.at - lo, q: a.q})
			}
		}
		got, l := openLoop(c, conns, seg)
		open = append(open, got...)
		lag = max(lag, l)
		got, wall := closedLoop(c, conns, p.closed, &cursor, burst)
		closed = append(closed, got...)
		closedWall += wall
	}
	m1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	c.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	rep.Host.LoadgenLagMS = float64(lag) / 1e6

	// Correctness and outcomes over both measured phases.
	measured := append(append([]sent{}, open...), closed...)
	checked = append(checked, measured...)
	for _, s := range checked {
		if s.r.ok() && s.r.checksum != refs[refKey(s.q)] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("wrong checksum for %s: got %s, want %s",
				s.q.key(), s.r.checksum, refs[refKey(s.q)]))
		}
	}
	byStatus := map[string]int{}
	failed := 0
	for _, s := range measured {
		if s.r.ok() {
			continue
		}
		failed++
		switch s.r.status {
		case 429, 503, 504:
			byStatus[fmt.Sprint(s.r.status)]++
		default:
			byStatus["other"]++
		}
	}

	// Metrics of the HTTP run.
	m := rep.Metrics
	lat := latencies(open)
	for _, l := range lat {
		if math.IsInf(l, 1) {
			l = -1
		}
		rep.LatMS = append(rep.LatMS, l)
	}
	m["latency_p50_ms"] = quantile(append([]float64{}, lat...), 0.5)
	m["latency_p95_ms"] = quantile(lat, 0.95)
	closedOK := 0
	for _, s := range closed {
		if s.r.ok() {
			closedOK++
		}
	}
	m["capacity_rps"] = ratio(float64(closedOK), closedWall.Seconds())
	var sim []float64
	for _, s := range open {
		rep.SimNS = append(rep.SimNS, s.r.elapsedNS)
		if s.r.ok() {
			sim = append(sim, float64(s.r.elapsedNS)/1e6)
		}
	}
	m["sim_ms_p50"] = quantile(append([]float64{}, sim...), 0.5)
	m["sim_ms_p95"] = quantile(sim, 0.95)
	m["peak_rss_mb"] = float64(srv.maxRSS) / 1e6
	errRatio := ratio(float64(failed), float64(len(measured)))
	m["success_ratio"] = 1 - errRatio
	m["serve.error_ratio"] = errRatio
	for _, k := range []string{"429", "503", "504", "other"} {
		m["serve.errors_"+k] = float64(byStatus[k])
	}
	m["loadgen.lag_ms_max"] = rep.Host.LoadgenLagMS
	rep.Samples["open_loop"] = len(open)
	rep.Samples["open_loop_beyond_p95"] = beyond(len(open), 0.95)
	rep.Samples["closed_loop"] = len(closed)
	rep.Samples["setups"] = len(setups)

	defs := endToEnd
	if o.trace {
		layerDeltas(m0, m1, runtime.GOMAXPROCS(0), m)
		queries := make([]query, min(len(open), replayMax))
		for i := range queries {
			queries[i] = open[i].q
		}
		// Untraced replays bracket the traced one, so warm-up and drift
		// during the run do not bias the overhead ratio.
		var runs [3]*replayResult
		for i := range runs {
			if runs[i], err = replay(w, o.seed, queries, i == 1); err != nil {
				return nil, err
			}
		}
		traced := runs[1]
		rep.Problems = append(rep.Problems, compareReplay(w, open, runs[:]...)...)
		replayLayers(traced, runs[0], runs[2], m)
		rep.Samples["replay"] = len(queries)
		rep.Samples["spans"] = len(traced.timer.spans)
		if err := writeSpans(filepath.Join(o.out, "spans", tag+".json"), traced.timer); err != nil {
			return nil, err
		}
		defs = perLayer
	}

	// JSON has no infinity or NaN: a percentile past the failed requests
	// reads as the largest float, one with no samples as 0.
	for k, v := range m {
		switch {
		case math.IsInf(v, 1):
			m[k] = math.MaxFloat64
		case math.IsNaN(v):
			m[k] = 0
		}
	}
	rep.summary = summary{
		Correct:   len(rep.Problems) == 0,
		Attempted: len(measured),
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		rep.summary.Metrics[d.name] = value{m[d.name], d.unit}
	}
	printReport(stdout, rep)
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results", tag+".json"), raw, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// compareReplay checks that the in-process replays answered exactly as the
// HTTP run did: the same checksums everywhere, and on deterministic
// workloads the same simulated time per request. Fault outcomes depend on
// the device's run count, so hot-flaky compares checksums only.
func compareReplay(w workload, open []sent, replays ...*replayResult) []string {
	var problems []string
	for _, rr := range replays {
		for i, r := range rr.replies {
			s := open[i]
			if !s.r.ok() || r.err != nil {
				continue
			}
			if r.checksum != s.r.checksum {
				problems = append(problems, fmt.Sprintf("replay checksum differs for %s", s.q.key()))
			}
			if w.deterministic() && r.elapsedNS != s.r.elapsedNS {
				problems = append(problems, fmt.Sprintf("replay simulated time differs for %s: %d vs %d ns",
					s.q.key(), r.elapsedNS, s.r.elapsedNS))
			}
		}
	}
	return problems
}

// refKey identifies a reference result; source-free algorithms share one.
func refKey(q query) string {
	if q.algo == "cc" {
		q.src = -1
	}
	return q.key()
}

// references computes the CPU reference checksum of every distinct query,
// spread over the host's cores.
func references(graphs map[string]*emogi.Graph, qs []query) map[string]string {
	todo := map[string]query{}
	for _, q := range qs {
		todo[refKey(q)] = q
	}
	keys := make([]string, 0, len(todo))
	for k := range todo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan string)
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				q := todo[key]
				g := graphs[q.dataset]
				var vals []uint32
				switch q.algo {
				case "bfs":
					vals = graph.RefBFS(g, q.src)
				case "sssp":
					vals = graph.RefSSSP(g, q.src)
				case "cc":
					vals = graph.RefCC(g)
				}
				sum := checksum(vals)
				mu.Lock()
				out[key] = sum
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}

// printReport prints every metric the run measured, by name with its unit.
func printReport(wr io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(wr, "perfbench %s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(wr, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s loadgen_lag_ms_max=%.3f\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceSHA256, h.LoadgenLagMS)
	fmt.Fprintf(wr, "samples: open_loop=%d (beyond p95: %d) closed_loop=%d setups=%d\n",
		rep.Samples["open_loop"], rep.Samples["open_loop_beyond_p95"], rep.Samples["closed_loop"], rep.Samples["setups"])
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if v, ok := rep.Metrics[d.name]; ok {
			fmt.Fprintf(wr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(wr, "PROBLEM:", p)
	}
}

// describeHost records what the numbers were measured on.
func describeHost(root string) hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

// sourceDigest hashes the program's Go sources and module file, so a run
// names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	hash := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(hash, "%s %d\n", filepath.ToSlash(path), len(raw))
		hash.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(hash.Sum(nil))[:16]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
