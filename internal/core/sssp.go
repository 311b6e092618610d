package core

import "repro/internal/graph"

// ssspProgram declares single-source shortest path: a min-lattice monoid
// adding the edge weight, over an explicit active set with round-boundary
// snapshots (the frontier-based Bellman-Ford relaxation of [28, 37] the
// paper builds on). Each iteration, every vertex whose distance improved
// last round relaxes its outgoing edges; the run converges when no
// distance changes. Edge weights stream from host memory alongside the
// destinations.
//
// Relaxations are bulk-synchronous (Jacobi): each round, active vertices
// read their distance from a device-side snapshot taken at the round
// boundary while atomic-min updates land in the live array — the same
// racy-read/atomic-write structure a real GPU kernel has, with the
// snapshot making the reads independent of warp execution order so runs
// are bit-for-bit reproducible under the parallel launch engine (the
// engine's FrontierActive policy). Intra-round chaining (a warp reusing a
// distance another warp lowered moments earlier) is given up; the fixed
// point is identical, reached in a few more launches.
func ssspProgram() *Program {
	return &Program{
		App:      "SSSP",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineAdd},
		Weighted: true,
		Init: func(v, src int) uint32 {
			if v == src {
				return 0
			}
			return graph.InfDist
		},
		Seed: func(v, src int) bool { return v == src },
		Ref:  graph.RefSSSP,
	}
}
