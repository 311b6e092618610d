package core

import "repro/internal/graph"

// bfsProgram declares level-synchronous breadth-first search over the
// frontier engine: a min-lattice carry monoid over an implicit
// match-by-level frontier, with active vertices pushing level+1 to their
// neighbors — one kernel launch per level (§4.2: "the total number of
// kernels launched... is equal to the distance between the source vertex
// to the furthest reachable vertex"). Values are BFS levels
// (graph.InfDist for unreachable vertices). Seed is set even though match
// programs don't use it so the multi-GPU topology (which always keeps an
// explicit frontier) can run the same descriptor.
func bfsProgram() *Program {
	return &Program{
		App:      "BFS",
		Frontier: FrontierMatch,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineCarry},
		Init: func(v, src int) uint32 {
			if v == src {
				return 0
			}
			return graph.InfDist
		},
		Seed: func(v, src int) bool { return v == src },
		Push: func(sv uint32) uint32 { return sv + 1 },
		Ref:  graph.RefBFS,
	}
}
