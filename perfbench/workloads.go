package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	emogi "repro"
)

// Every workload runs the paper's platform and kernel at one dataset scale.
const (
	datasetScale = 0.1
	platform     = "v100" // V100 + PCIe 3.0
	variant      = "merged+aligned"
)

// cell is one (dataset, algorithm) pair of a traffic mix.
type cell struct {
	dataset, algo string
}

// workload is one traffic mix plus the emogi-serve configuration it runs
// against. rate is the open-loop arrival rate, fixed once so the simulated
// device is about half busy; it is never recalibrated.
type workload struct {
	name  string
	cells []cell
	rate  float64 // open-loop requests per second

	// hotKeys > 0 draws sources from a Zipf(zipfSkew) distribution over a
	// hot set of that many (cell, source) keys, split evenly over the
	// cells; 0 gives every request a distinct source.
	hotKeys int

	cache     int     // emogi-serve -cache (0 keeps the 128-entry default)
	faultRate float64 // flaky-link -fault-rate; 0 disables fault injection
	tiers     string
	placement string
	paging    string
	transport string
}

// zipfSkew is the hot set's Zipf exponent.
const zipfSkew = 1.05

// deterministic reports whether each request's simulated time is a pure
// function of the request, so it must repeat exactly across runs and
// between the HTTP run and the in-process replay. Injected fault outcomes
// depend on the device's run count, which depends on request order.
func (w workload) deterministic() bool { return w.faultRate == 0 }

var workloads = []workload{
	{
		name: "table2-zc",
		cells: []cell{
			{"GK", "bfs"}, {"GK", "sssp"}, {"GK", "cc"},
			{"GU", "bfs"}, {"GU", "sssp"}, {"GU", "cc"},
			{"SK", "bfs"}, {"SK", "sssp"},
		},
		rate:      7,
		cache:     -1,
		tiers:     "2tier",
		placement: "auto",
		paging:    "cpu",
		transport: "static-zc",
	},
	{
		name: "hot-flaky",
		cells: []cell{
			{"GK", "bfs"}, {"GK", "sssp"},
			{"SK", "bfs"}, {"SK", "sssp"},
		},
		rate:      15,
		hotKeys:   384,
		faultRate: 7e-6,
		tiers:     "2tier",
		placement: "auto",
		paging:    "cpu",
		transport: "static-zc",
	},
	{
		name: "adaptive-cxl",
		cells: []cell{
			{"GK", "bfs"}, {"GK", "sssp"},
			{"SK", "bfs"}, {"SK", "sssp"},
		},
		rate:      7.5,
		cache:     -1,
		tiers:     "3tier-cxl",
		placement: "cxl",
		paging:    "gpu",
		transport: "adaptive",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// datasets lists the workload's graphs in first-use order.
func (w workload) datasets() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range w.cells {
		if !seen[c.dataset] {
			seen[c.dataset] = true
			out = append(out, c.dataset)
		}
	}
	return out
}

// graphSeed and faultSeed derive the program's seeds from the benchmark
// seed, so one argument fixes every input.
func graphSeed(seed int64) int64  { return seed }
func faultSeed(seed int64) uint64 { return uint64(seed)*0x9E3779B97F4A7C15 + 1 }

// serverArgs is the emogi-serve command line for the workload.
func (w workload) serverArgs(addr string, seed int64) []string {
	args := []string{
		"-addr", addr,
		"-graphs", strings.Join(w.datasets(), ","),
		"-scale", strconv.FormatFloat(datasetScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(graphSeed(seed), 10),
		"-platform", platform,
		"-tiers", w.tiers,
		"-placement", w.placement,
		"-paging", w.paging,
		"-transport", w.transport,
		"-cache", strconv.Itoa(w.cache),
	}
	if w.faultRate > 0 {
		args = append(args,
			"-fault-profile", "flaky-link",
			"-fault-rate", strconv.FormatFloat(w.faultRate, 'g', -1, 64),
			"-fault-seed", strconv.FormatUint(faultSeed(seed), 10))
	}
	return args
}

// query is one traversal request of a schedule.
type query struct {
	cell
	src int
}

func (q query) key() string { return q.dataset + "/" + q.algo + "/" + strconv.Itoa(q.src) }

// arrival is one open-loop request and its due time from phase start, in
// seconds.
type arrival struct {
	at float64
	q  query
}

// plan is every input a run sends, all derived from the seed.
type plan struct {
	warmup []query   // one per cell, untimed
	open   []arrival // the open-loop phase, sorted by due time
	closed []query   // the closed-loop request pool, cycled in order
}

// sourcePool hands out the next unused source of each dataset, walking a
// seeded permutation of the vertices that have outgoing edges.
type sourcePool struct {
	perm map[string][]int
	next map[cell]int
}

func newSourcePool(graphs map[string]*emogi.Graph, rng *rand.Rand) *sourcePool {
	p := &sourcePool{perm: map[string][]int{}, next: map[cell]int{}}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := graphs[name]
		var vs []int
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(v) > 0 {
				vs = append(vs, v)
			}
		}
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		p.perm[name] = vs
	}
	return p
}

// take returns the cell's next distinct source. Each cell walks its own
// offset through the dataset's permutation, so sources are distinct within
// a cell for as long as the dataset has vertices.
func (p *sourcePool) take(c cell) int {
	vs := p.perm[c.dataset]
	i := p.next[c]
	p.next[c] = i + 1
	return vs[i%len(vs)]
}

// stratified returns n cells in blocks that each hold every cell once in
// seeded order, so every cell gets equal weight in any window of the mix.
func stratified(cells []cell, n int, rng *rand.Rand) []cell {
	out := make([]cell, 0, n+len(cells))
	for len(out) < n {
		for _, i := range rng.Perm(len(cells)) {
			out = append(out, cells[i])
		}
	}
	return out[:n]
}

// makePlan derives a run's requests from the seed: nOpen open-loop
// arrivals at the workload's rate, and a closed-loop pool of closedPool
// requests.
func makePlan(w workload, graphs map[string]*emogi.Graph, seed int64, nOpen, closedPool int) plan {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pool := newSourcePool(graphs, rng)
	var p plan
	for _, c := range w.cells {
		p.warmup = append(p.warmup, query{c, pool.take(c)})
	}

	// Every request's cell comes from a stratified sequence, so each cell
	// has equal weight whatever the seed. Distinct-source workloads take
	// the cell's next unused source; a hot set instead gives each cell an
	// equal share of the keys and Zipf-draws a key within the cell.
	var mix []cell
	nextCell := func() cell {
		if len(mix) == 0 {
			mix = stratified(w.cells, len(w.cells), rng)
		}
		c := mix[0]
		mix = mix[1:]
		return c
	}
	draw := func() query {
		c := nextCell()
		return query{c, pool.take(c)}
	}
	if w.hotKeys > 0 {
		perCell := w.hotKeys / len(w.cells)
		hot := map[cell][]int{}
		for _, c := range w.cells {
			for i := 0; i < perCell; i++ {
				hot[c] = append(hot[c], pool.take(c))
			}
		}
		z := rand.NewZipf(rng, zipfSkew, 1, uint64(perCell-1))
		draw = func() query {
			c := nextCell()
			return query{c, hot[c][z.Uint64()]}
		}
	}

	// A Poisson process conditioned on its count: nOpen arrivals placed
	// uniformly over nOpen/rate seconds, so every seed measures the same
	// number of requests.
	at := make([]float64, nOpen)
	for i := range at {
		at[i] = rng.Float64() * float64(nOpen) / w.rate
	}
	sort.Float64s(at)
	for _, t := range at {
		p.open = append(p.open, arrival{at: t, q: draw()})
	}
	for i := 0; i < closedPool; i++ {
		p.closed = append(p.closed, draw())
	}
	return p
}
