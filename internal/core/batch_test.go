package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// singleRunRef executes one source alone on a fresh device, the target a
// batched lane must reproduce bit-for-bit.
func singleRunRef(t *testing.T, g *graph.CSR, name string, src int, variant Variant) *Result {
	t.Helper()
	dev := testDevice()
	dg, err := uploadStatic(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := LookupAlgorithm(name)
	res, err := a.Run(context.Background(), dev, dg, src, variant)
	if err != nil {
		t.Fatalf("reference %s/src=%d: %v", name, src, err)
	}
	return res
}

func sameLane(got, want *Result) bool {
	if got.Iterations != want.Iterations || len(got.Values) != len(want.Values) {
		return false
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			return false
		}
	}
	return true
}

// TestBatchDuplicateSources: lanes are independent, so two lanes with
// the same source converge to identical values and round counts.
func TestBatchDuplicateSources(t *testing.T) {
	g := graph.Urand("dup", 500, 6, 3)
	g.InitWeights(4, 1, 64)
	src := graph.PickSources(g, 1, 3)[0]
	dev := testDevice()
	dg, err := uploadStatic(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	specs := []BatchSpec{{Src: src}, {Src: src}, {Src: src}}
	out, err := RunBatchAlgo(context.Background(), dev, dg, "sssp", specs, Merged)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Results {
		if item.Err != nil {
			t.Fatalf("lane %d: %v", i, item.Err)
		}
		if !sameLane(item.Res, out.Results[0].Res) {
			t.Errorf("lane %d diverged from lane 0 with the same source", i)
		}
	}
	if !sameLane(out.Results[0].Res, singleRunRef(t, g, "sssp", src, Merged)) {
		t.Error("duplicated lanes diverged from the single-source run")
	}
}

// FuzzBatchLanes drives the batched engine over random graphs, random
// source sets (1..8 lanes), random applications, and random pre-canceled
// lanes, asserting the batching contract every time: surviving lanes are
// bit-for-bit the single-source run, canceled lanes report the typed
// cancellation error, and no lane overruns the n+1 round bound.
func FuzzBatchLanes(f *testing.F) {
	f.Add(int64(1), uint16(80), uint8(4), uint8(0), uint8(3), uint8(0))
	f.Add(int64(2), uint16(200), uint8(8), uint8(1), uint8(5), uint8(2))
	f.Add(int64(3), uint16(40), uint8(2), uint8(2), uint8(1), uint8(255))
	f.Add(int64(4), uint16(150), uint8(6), uint8(0), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nv uint16, deg uint8, algoIdx uint8, kRaw uint8, cancelMask uint8) {
		n := int(nv)%300 + 2
		avgDeg := int(deg)%8 + 1
		g := graph.Urand("fuzz", n, avgDeg, seed)
		g.InitWeights(seed+1, 1, 64)
		k := int(kRaw)%8 + 1
		srcs := graph.PickSources(g, k, seed)
		if srcs == nil {
			t.Skip("no vertex with outgoing edges")
		}
		algos := []string{"bfs", "sssp", "sswp"}
		name := algos[int(algoIdx)%len(algos)]

		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		specs := make([]BatchSpec, len(srcs))
		for i, src := range srcs {
			specs[i] = BatchSpec{Src: src}
			if cancelMask>>(uint(i)%8)&1 == 1 {
				specs[i].Ctx = canceled
			}
		}

		dev := testDevice()
		dg, err := uploadStatic(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunBatchAlgo(context.Background(), dev, dg, name, specs, Merged)
		if err != nil {
			t.Fatal(err)
		}
		if !out.BatchedRun {
			t.Fatalf("%s has a batched mode but BatchedRun = false", name)
		}
		for i, item := range out.Results {
			if specs[i].Ctx != nil {
				if !errors.Is(item.Err, ErrCanceled) {
					t.Errorf("canceled lane %d: err = %v, want ErrCanceled", i, item.Err)
				}
				continue
			}
			if item.Err != nil {
				t.Fatalf("lane %d: %v", i, item.Err)
			}
			if item.Res.Iterations < 1 || item.Res.Iterations > n+1 {
				t.Errorf("lane %d: implausible round count %d for %d vertices",
					i, item.Res.Iterations, n)
			}
			if !sameLane(item.Res, singleRunRef(t, g, name, srcs[i], Merged)) {
				t.Errorf("%s lane %d (src=%d): diverged from the single-source run",
					name, i, srcs[i])
			}
		}
	})
}
