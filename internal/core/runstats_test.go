package core

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// TestRunStatsCarryOwnMaxima: a run's critical-path counters are its own.
// A BFS over a low-degree graph reports the same MaxWarpHostReqs on a
// device that just traversed a hub-heavy graph as on a fresh one, not the
// device's lifetime maximum, on every topology that reports Result.Stats.
func TestRunStatsCarryOwnMaxima(t *testing.T) {
	build := func(sym string) (*graph.CSR, int) {
		spec, err := graph.BySym(sym)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build(0.02, 42)
		return g, graph.PickSources(g, 1, 71)[0]
	}
	hub, hubSrc := build("GK")
	flat, flatSrc := build("GU")
	ctx := context.Background()

	topologies := []struct {
		name string
		run  func(devs []*gpu.Device, g *graph.CSR, src int) (*Result, error)
	}{
		{"single", func(devs []*gpu.Device, g *graph.CSR, src int) (*Result, error) {
			dg, err := uploadStatic(devs[0], g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return RunAlgo(ctx, devs[0], dg, "bfs", src, MergedAligned)
		}},
		{"batch", func(devs []*gpu.Device, g *graph.CSR, src int) (*Result, error) {
			dg, err := uploadStatic(devs[0], g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			out, err := RunBatchAlgo(ctx, devs[0], dg, "bfs", []BatchSpec{{Src: src}, {Src: 0}}, MergedAligned)
			if err != nil {
				return nil, err
			}
			return out.Results[0].Res, out.Results[0].Err
		}},
		{"hybrid", func(devs []*gpu.Device, g *graph.CSR, src int) (*Result, error) {
			h, err := NewHybridSystem(devs[0], g, 8, 0.3)
			if err != nil {
				return nil, err
			}
			return h.BFS(ctx, src)
		}},
		{"multi-gpu", func(devs []*gpu.Device, g *graph.CSR, src int) (*Result, error) {
			ms, err := NewMultiSystem(devs, g, 8)
			if err != nil {
				return nil, err
			}
			return ms.BFS(ctx, src)
		}},
	}
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			run := func(devs []*gpu.Device, g *graph.CSR, src int) *Result {
				res, err := tc.run(devs, g, src)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fresh := run(multiDevices(2), flat, flatSrc).Stats.MaxWarpHostReqs
			devs := multiDevices(2)
			busy := run(devs, hub, hubSrc).Stats.MaxWarpHostReqs
			if busy <= fresh {
				t.Fatalf("setup: hub-heavy run's busiest warp issued %d requests, low-degree run %d", busy, fresh)
			}
			if got := run(devs, flat, flatSrc).Stats.MaxWarpHostReqs; got != fresh {
				t.Errorf("MaxWarpHostReqs after a hub-heavy run = %d, want %d as on a fresh device (previous run's %d)",
					got, fresh, busy)
			}
		})
	}
}
