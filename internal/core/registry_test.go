package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// TestRegistryPreconditions is the one table over the registry's graph and
// source preconditions. Every entry runs through RunAlgo and RunBatchAlgo
// on an unweighted undirected graph and on a weighted directed graph, and
// must error exactly when its NeedsWeights/NeedsUndirected metadata says
// so. Where it runs, an out-of-range source fails a RunAlgo call and only
// its own lane of a batch (source-free entries ignore the source), and an
// empty batch is rejected.
func TestRegistryPreconditions(t *testing.T) {
	unweighted := graph.Urand("unweighted", 200, 8, 1)
	directed := graph.Web("directed", 300, 10, 1)
	directed.InitWeights(7, 8, 72)
	if unweighted.Directed || unweighted.Weights != nil || !directed.Directed {
		t.Fatal("setup: want an unweighted undirected and a weighted directed graph")
	}
	ctx := context.Background()
	for _, a := range Algorithms() {
		for _, g := range []*graph.CSR{unweighted, directed} {
			t.Run(a.Name+"/"+g.Name, func(t *testing.T) {
				dev := testDevice()
				dg, err := uploadStatic(dev, g, ZeroCopy, 8)
				if err != nil {
					t.Fatal(err)
				}
				src := graph.PickSources(g, 1, 5)[0]
				n := g.NumVertices()
				wantErr := (a.NeedsWeights && g.Weights == nil) || (a.NeedsUndirected && g.Directed)

				res, err := RunAlgo(ctx, dev, dg, a.Name, src, Merged)
				if (err != nil) != wantErr {
					t.Fatalf("RunAlgo err = %v, want error %v (NeedsWeights %v, NeedsUndirected %v)",
						err, wantErr, a.NeedsWeights, a.NeedsUndirected)
				}
				if err == nil {
					if err := res.Validate(g); err != nil {
						t.Errorf("RunAlgo: %v", err)
					}
				}
				for _, bad := range []int{-1, n} {
					_, err := RunAlgo(ctx, dev, dg, a.Name, bad, Merged)
					if fails := wantErr || !a.NoSource; (err != nil) != fails {
						t.Errorf("RunAlgo src %d: err = %v, want error %v", bad, err, fails)
					}
				}

				out, err := RunBatchAlgo(ctx, dev, dg, a.Name, []BatchSpec{{Src: src}, {Src: -1}, {Src: n}}, Merged)
				if (err != nil) != wantErr {
					t.Fatalf("RunBatchAlgo err = %v, want error %v", err, wantErr)
				}
				if err == nil {
					if lane := out.Results[0]; lane.Err != nil {
						t.Errorf("good lane failed beside bad-source lanes: %v", lane.Err)
					} else if err := lane.Res.Validate(g); err != nil {
						t.Errorf("good lane: %v", err)
					}
					for q, lane := range out.Results[1:] {
						if (lane.Err != nil) == a.NoSource {
							t.Errorf("bad-source lane %d: err = %v, want error %v", q+1, lane.Err, !a.NoSource)
						}
					}
				}
				if _, err := RunBatchAlgo(ctx, dev, dg, a.Name, nil, Merged); err == nil {
					t.Errorf("empty batch accepted")
				}
			})
		}
	}
}
