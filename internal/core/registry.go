package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// This file is the algorithm registry: every traversal entry point —
// the paper's applications and the specialty configurations — registered
// under a stable name so callers (RunAlgo, the public emogi API, the
// emogi and emogi-bench commands, the traversal service) dispatch by name
// instead of hard-coded switches. A standard application is a Program
// descriptor plus one registration line (see sswp.go for the worked
// example); its entry's metadata, batched mode and validation all come
// from the descriptor.

// Algorithm is one registered traversal entry point.
type Algorithm struct {
	// Name is the registry key (lower-case, stable; the -algo flag value).
	Name string
	// Description is the one-line -algo listing text.
	Description string
	// NeedsWeights marks algorithms that require a weighted graph.
	// RunAlgo and RunBatchAlgo reject an unweighted graph before dispatch.
	NeedsWeights bool
	// NeedsUndirected marks algorithms that require an undirected graph.
	// RunAlgo and RunBatchAlgo reject a directed graph before dispatch.
	NeedsUndirected bool
	// NoSource marks source-free algorithms (src is ignored).
	NoSource bool
	// FixedVariant marks algorithms that ignore the requested kernel
	// variant (specialty kernels with their own access discipline).
	FixedVariant bool
	// Run executes the algorithm on a loaded device graph, stopping at
	// the next round boundary with a *CanceledError when ctx is done.
	// Algorithms with their own edge layout (compressed, edge-centric)
	// build it from dg.Graph internally and release it before returning.
	Run func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error)
	// Batch, when non-nil, advances up to K sources in one batched engine
	// run sharing each edge scan across the lanes (see batch.go). Nil
	// algorithms batch through RunBatchAlgo's sequential fallback.
	Batch func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error)

	// prog is the Program a standard entry runs (nil for the specialty
	// kernels); Result.Validate reads its CPU reference.
	prog *Program
}

// programAlgorithm builds the registry entry of a standard Program: the
// standard kernels pick the frontier discipline, the descriptor supplies
// NeedsWeights and NoSource, and every sourced program batches.
func programAlgorithm(prog *Program, description string) *Algorithm {
	a := &Algorithm{
		Name:         strings.ToLower(prog.App),
		Description:  description,
		NeedsWeights: prog.Weighted,
		NoSource:     prog.NoSource,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error) {
			return runStandard(ctx, dev, dg, prog, src, variant)
		},
		prog: prog,
	}
	if !prog.NoSource {
		a.Batch = func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
			return runBatchProgram(ctx, dev, dg, prog, specs, variant)
		}
	}
	return a
}

// check enforces the entry's graph preconditions — the one place they are
// checked. Source ranges are checked by the engine (per lane in a batch).
func (a *Algorithm) check(dg *DeviceGraph) error {
	if a.NeedsWeights && dg.Weights == nil {
		return fmt.Errorf("core: %s requires a weighted graph (got %s)", a.Name, dg.Graph.Name)
	}
	if a.NeedsUndirected && dg.Graph.Directed {
		return fmt.Errorf("core: %s requires an undirected graph (got %s)", a.Name, dg.Graph.Name)
	}
	return nil
}

// registry holds the built-in algorithms. It is populated once at init
// and read-only afterwards, so lookups are safe for concurrent use.
var registry = map[string]*Algorithm{}

// RegisterAlgorithm adds an algorithm to the registry. It panics on a
// duplicate or empty name (registration is a program-startup act, like
// flag declaration).
func RegisterAlgorithm(a *Algorithm) {
	if a == nil || a.Name == "" {
		panic("core: RegisterAlgorithm with empty name")
	}
	name := strings.ToLower(a.Name)
	if _, dup := registry[name]; dup {
		panic("core: duplicate algorithm " + name)
	}
	registry[name] = a
}

// LookupAlgorithm returns the named algorithm, or nil if unknown. Names
// are case-insensitive.
func LookupAlgorithm(name string) *Algorithm {
	return registry[strings.ToLower(name)]
}

// Algorithms returns all registered algorithms sorted by name.
func Algorithms() []*Algorithm {
	out := make([]*Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AlgorithmNames returns the sorted registry keys.
func AlgorithmNames() []string {
	algos := Algorithms()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

// UnknownAlgorithmError is returned for a name not in the registry. Its
// message lists every valid name so the caller never needs a second
// round-trip to discover them.
type UnknownAlgorithmError struct {
	Name string
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("core: unknown algorithm %q (valid algorithms: %s)",
		e.Name, strings.Join(AlgorithmNames(), ", "))
}

// RunAlgo dispatches a traversal by registry name. An unknown name returns
// an *UnknownAlgorithmError listing the valid names; a graph that misses
// the entry's NeedsWeights or NeedsUndirected precondition is rejected
// before anything runs.
func RunAlgo(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, name string, src int, variant Variant) (*Result, error) {
	a := LookupAlgorithm(name)
	if a == nil {
		return nil, &UnknownAlgorithmError{Name: name}
	}
	if err := a.check(dg); err != nil {
		return nil, err
	}
	return a.Run(ctx, dev, dg, src, variant)
}

func init() {
	RegisterAlgorithm(programAlgorithm(bfsProgram(), "breadth-first search (match-by-level frontier)"))
	RegisterAlgorithm(programAlgorithm(ssspProgram(), "single-source shortest path (atomic-min + add)"))
	cc := programAlgorithm(ccProgram(), "connected components (min-label propagation)")
	cc.NeedsUndirected = true // the paper excludes the directed SK and UK5 from CC
	RegisterAlgorithm(cc)
	RegisterAlgorithm(programAlgorithm(sswpProgram(), "single-source widest path (atomic-max + min)"))
	for _, lanes := range []int{4, 8, 16} {
		lanes := lanes
		RegisterAlgorithm(&Algorithm{
			Name:         fmt.Sprintf("bfs-worker%d", lanes),
			Description:  fmt.Sprintf("BFS with %d-lane sub-warp workers (§4.3.1 study)", lanes),
			FixedVariant: true,
			Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
				return BFSWithWorker(ctx, dev, dg, src, lanes, true)
			},
		})
	}
	RegisterAlgorithm(&Algorithm{
		Name:         "bfs-balanced",
		Description:  "BFS with hub-list splitting across virtual workers (§6)",
		FixedVariant: true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			return bfsBalanced(ctx, dev, dg, src, 1024)
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:            "bfs-pushpull",
		Description:     "direction-optimized BFS (Beamer push/pull)",
		NeedsUndirected: true,
		FixedVariant:    true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			return bfsDirectionOptimized(ctx, dev, dg, src, defaultPullThreshold)
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "bfs-compressed",
		Description:  "BFS over the delta-compressed edge stream (§6)",
		FixedVariant: true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			cdg, err := UploadCompressed(dev, dg.Graph)
			if err != nil {
				return nil, err
			}
			defer cdg.Free(dev)
			return BFSCompressed(ctx, dev, cdg, src)
		},
	})
	RegisterAlgorithm(&Algorithm{
		Name:         "bfs-edgecentric",
		Description:  "edge-centric BFS over a COO edge stream (§2.1 contrast)",
		FixedVariant: true,
		Run: func(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, _ Variant) (*Result, error) {
			ec, err := uploadEdgeCentric(dev, dg.Graph)
			if err != nil {
				return nil, err
			}
			defer ec.Free(dev)
			return bfsEdgeCentric(ctx, dev, ec, src)
		},
	})
}

// Validate checks a result's Values against the CPU reference of the
// registered Program its App names.
func (r *Result) Validate(g *graph.CSR) error {
	a := LookupAlgorithm(r.App)
	if a == nil || a.prog == nil {
		return fmt.Errorf("core: cannot validate unknown app %q", r.App)
	}
	want := a.prog.Ref(g, r.Source)
	if len(r.Values) != len(want) {
		return fmt.Errorf("core: %s result length %d, want %d", r.App, len(r.Values), len(want))
	}
	for v := range want {
		if r.Values[v] != want[v] {
			return fmt.Errorf("core: %s value[%d] = %d, want %d (src %d)",
				r.App, v, r.Values[v], want[v], r.Source)
		}
	}
	return nil
}
