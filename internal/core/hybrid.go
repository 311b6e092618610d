package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// This file implements the collaborative CPU-GPU extension of §7 ("prior
// works have proposed ... collaborative CPU-GPU computation to meet the
// needs of large graph computation ... EMOGI can be extended to support
// both"): the host CPU traverses a share of the vertex space directly from
// its own memory — no PCIe crossing at all — while the GPU covers the rest
// with zero-copy reads, and the two label replicas are min-reduced between
// levels.

// The calibrated host model of the CPU side.
const (
	// cpuScanBytesPerSec is the CPU's effective edge-scan throughput:
	// multi-threaded pointer-chasing over DDR4 lands far below streaming
	// bandwidth; ~3 GB/s is typical for a modern two-socket host.
	cpuScanBytesPerSec = 3e9
	// cpuIterOverhead is the fixed per-level cost of the CPU worker
	// (thread wakeup, frontier scan).
	cpuIterOverhead = 5 * time.Microsecond
)

// HybridSystem pairs one simulated GPU with the host CPU over a shared
// graph.
type HybridSystem struct {
	dev   *gpu.Device
	dg    *DeviceGraph
	graph *graph.CSR
	split int // first GPU-owned vertex; CPU owns [0, split)
}

// NewHybridSystem uploads g and computes the arc-balanced split point:
// cpuShare is the fraction of arcs assigned to the CPU partition (0
// disables the CPU side; 1 disables the GPU side).
func NewHybridSystem(dev *gpu.Device, g *graph.CSR, edgeBytes int, cpuShare float64) (*HybridSystem, error) {
	if cpuShare < 0 || cpuShare > 1 {
		return nil, fmt.Errorf("core: CPU share %v outside [0, 1]", cpuShare)
	}
	dg, err := Upload(dev, g, StaticPolicyFor(ZeroCopy), edgeBytes, PlaceAuto)
	if err != nil {
		return nil, err
	}
	target := int64(float64(g.NumEdges()) * cpuShare)
	split := 0
	var acc int64
	for split < g.NumVertices() && acc < target {
		acc += g.Degree(split)
		split++
	}
	return &HybridSystem{dev: dev, dg: dg, graph: g, split: split}, nil
}

// Split returns the first GPU-owned vertex: the CPU owns [0, Split).
func (h *HybridSystem) Split() int { return h.split }

// Free releases the graph buffers.
func (h *HybridSystem) Free() { h.dg.Free(h.dev) }

// BFS runs level-synchronous collaborative BFS: per level the CPU relaxes
// its partition's active lists from host memory while the GPU relaxes its
// own with merged+aligned zero-copy reads; the level costs the slower of
// the two plus a label-replica reduction. The round loop is the frontier
// engine's hybrid topology (engine.go) driving the standard BFS program.
func (h *HybridSystem) BFS(ctx context.Context, src int) (*Result, error) {
	return runHybrid(ctx, h, bfsProgram(), src)
}
