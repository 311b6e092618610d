package core

import "repro/internal/graph"

// ccProgram declares connected components by iterative min-label
// propagation (the GARDENIA-style baseline [51] the paper starts from):
// every vertex begins as its own component with the whole vertex set
// active — "all vertices are set as root vertices and the entire edge list
// is traversed" (§5.4) — and pushes its label to its neighbors until a
// fixed point. The final label of each vertex is the minimum vertex ID in
// its component. Identity is graph.InfDist for the active-kernel
// unreached-vertex guard; labels are vertex IDs, so the guard never trips.
// Like SSSP, propagation is bulk-synchronous over round-boundary
// snapshots. The graph must be undirected (the registry entry declares
// NeedsUndirected); the paper excludes the directed SK and UK5 graphs
// from CC for the same reason.
func ccProgram() *Program {
	return &Program{
		App:      "CC",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineCarry},
		NoSource: true,
		Init:     func(v, src int) uint32 { return uint32(v) },
		Seed:     func(v, src int) bool { return true },
		Ref:      func(g *graph.CSR, _ int) []uint32 { return graph.RefCC(g) },
	}
}
