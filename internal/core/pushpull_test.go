package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestDirectionOptimizedCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		if g.Directed {
			continue
		}
		dev := testDevice()
		dg, err := uploadStatic(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.PickSources(g, 1, 67)[0]
		res, err := bfsDirectionOptimized(context.Background(), dev, dg, src, defaultPullThreshold)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

// TestDirectionOptimizedUsesPull: on a uniform graph whose middle frontier
// is most of the vertex set, at least one level must run bottom-up, and the
// early exit must cut edge-list bytes versus pure push.
func TestDirectionOptimizedUsesPull(t *testing.T) {
	g := graph.Urand("gu", 8000, 24, 5)
	src := graph.PickSources(g, 1, 1)[0]

	devD := testDevice()
	dgD, _ := uploadStatic(devD, g, ZeroCopy, 8)
	do, err := bfsDirectionOptimized(context.Background(), devD, dgD, src, defaultPullThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if err := do.Validate(g); err != nil {
		t.Fatal(err)
	}
	pulls := 0
	for _, ks := range devD.Kernels() {
		if strings.Contains(ks.Name, "bfs/pull") {
			pulls++
		}
	}
	if pulls == 0 {
		t.Fatalf("no pull levels ran on a wide-frontier graph")
	}

	devP := testDevice()
	dgP, _ := uploadStatic(devP, g, ZeroCopy, 8)
	push, err := RunAlgo(context.Background(), devP, dgP, "bfs", src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if do.Stats.PCIePayloadBytes >= push.Stats.PCIePayloadBytes {
		t.Errorf("direction optimization should cut bytes: %d vs %d",
			do.Stats.PCIePayloadBytes, push.Stats.PCIePayloadBytes)
	}
}

// TestDirectionOptimizedAllPushMatchesPlain: with an unreachable pull
// threshold, the run degenerates to plain push BFS with identical traffic.
func TestDirectionOptimizedAllPushMatchesPlain(t *testing.T) {
	g := testGraphs()[1]
	src := graph.PickSources(g, 1, 3)[0]

	devA := testDevice()
	dgA, _ := uploadStatic(devA, g, ZeroCopy, 8)
	a, err := bfsDirectionOptimized(context.Background(), devA, dgA, src, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	devB := testDevice()
	dgB, _ := uploadStatic(devB, g, ZeroCopy, 8)
	b, err := RunAlgo(context.Background(), devB, dgB, "bfs", src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.PCIePayloadBytes != b.Stats.PCIePayloadBytes {
		t.Errorf("all-push direction-optimized differs from plain: %d vs %d",
			a.Stats.PCIePayloadBytes, b.Stats.PCIePayloadBytes)
	}
	for v := range a.Values {
		if a.Values[v] != b.Values[v] {
			t.Fatalf("values diverge at %d", v)
		}
	}
}
