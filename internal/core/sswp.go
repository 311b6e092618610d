package core

import "repro/internal/graph"

// This file adds single-source widest path (SSWP, also bottleneck
// shortest path: the width of a path is its narrowest edge, and each
// vertex's result is the widest width over all paths from the source)
// as a pure Program descriptor — no engine changes. SSWP is the engine's
// max-lattice existence proof: where BFS/SSSP/CC relax with atomic-min
// toward smaller values, SSWP relaxes with atomic-max toward wider paths,
// combining a vertex's width with each edge weight by min (a path is as
// wide as its narrowest hop). Everything else — the active-set frontier,
// the snapshot policy, convergence, telemetry, result assembly — is the
// same engine machinery the other applications run on.

// sswpProgram declares single-source widest path: a max lattice whose
// unreached value is 0, min-combining edge weights into atomic-max
// relaxations. The source starts at InfDist (the empty path has no
// bottleneck). Like SSSP it iterates explicit-active-set relaxation rounds
// to a fixed point with round-boundary snapshots; edge weights stream from
// host memory. Its CPU reference is the widest-path Dijkstra.
func sswpProgram() *Program {
	return &Program{
		App:      "SSWP",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: 0, Combine: CombineMin, Max: true},
		Weighted: true,
		Init: func(v, src int) uint32 {
			if v == src {
				return graph.InfDist
			}
			return 0
		},
		Seed: func(v, src int) bool { return v == src },
		Ref:  graph.RefSSWP,
	}
}
