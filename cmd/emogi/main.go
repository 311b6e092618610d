// Command emogi runs one graph traversal on the simulated system and
// reports its simulated time and PCIe traffic, e.g.:
//
//	emogi -graph GK -algo bfs -variant merged+aligned -transport static-zc
//	emogi -graph SK -algo sssp -transport static-uvm -sources 8
//	emogi -graph GK -algo bfs-compressed -transport adaptive
//	emogi -file mygraph.csr -algo cc
//	emogi -algo list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emogi: ")

	var (
		graphSym  = flag.String("graph", "GK", "dataset symbol (GK GU FS ML SK UK5)")
		graphFile = flag.String("file", "", "load a CSR graph file instead of generating")
		algo      = flag.String("algo", "bfs", "algorithm registry name (\"list\" prints all)")
		variant   = flag.String("variant", "merged+aligned", "kernel variant: naive, merged, merged+aligned")
		transport = flag.String("transport", "static-zc",
			"edge-list transport policy: static-zc, static-uvm, or adaptive")
		scale     = flag.Float64("scale", 1.0, "dataset scale (1.0 = standard 1:1000 reduction)")
		seed      = flag.Int64("seed", 42, "generator and source seed")
		sources   = flag.Int("sources", 4, "number of source vertices to average over")
		elemBytes = flag.Int("elem", 8, "edge element width in bytes (4 or 8)")
		platform  = flag.String("platform", "v100", "platform: v100, titanxp, a100-pcie3, a100-pcie4")
		tiers     = flag.String("tiers", "2tier",
			"memory-tier stack: 2tier (the classic machine) or 3tier-cxl (adds CXL-class external memory)")
		paging = flag.String("paging", "cpu",
			"UVM paging model: cpu (serialized fault handler) or gpu (GPU-driven page fetch)")
		placement = flag.String("placement", "auto",
			"edge-list tier placement: auto (DRAM with CXL spill), dram, or cxl")
		kernels = flag.Bool("kernels", false, "print the per-kernel (per-level) breakdown of the last run")
		reorder = flag.Int("reorder-window", 0,
			"IARU-style reorder window in 32B sectors (0 disables; >0 buffers off-device accesses and re-groups them by 128B line before dispatch)")
		compare = flag.Bool("compare", false, "run the UVM baseline alongside and print the speedup")
		gpus    = flag.Int("gpus", 1, "simulated GPU count (>1 uses the multi-GPU engine; BFS/SSSP/CC)")
	)
	flag.Parse()

	if *algo == "list" {
		fmt.Println("registered algorithms:")
		for _, a := range emogi.Algorithms() {
			fmt.Printf("  %-16s %s\n", a.Name, a.Description)
		}
		return
	}

	// The machine: platform preset, memory-tier stack, paging model, and
	// reorder window all land on cfg, which every path below builds from.
	cfg, err := emogi.PlatformByName(*platform, *scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.GPU.ReorderWindow = *reorder
	cfg, err = emogi.ApplyTierStack(cfg, *tiers)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.GPUDrivenPaging, err = emogi.ParsePaging(*paging); err != nil {
		log.Fatal(err)
	}
	place, err := emogi.ParsePlacement(*placement)
	if err != nil {
		log.Fatal(err)
	}
	// The multi-GPU engine builds its devices from cfg.GPU directly and runs
	// the two-tier machine with CPU paging and the edge list in host DRAM;
	// reject memory flags it cannot honor.
	if *gpus > 1 {
		const path = "with -gpus > 1"
		if cfg.GPU.Tiers.HasCXL() {
			log.Fatalf("-tiers %s is not supported %s (it runs the two-tier machine)", *tiers, path)
		}
		if cfg.GPUDrivenPaging {
			log.Fatalf("-paging %s is not supported %s (it runs CPU paging)", *paging, path)
		}
		if place == emogi.PlaceCXL {
			log.Fatalf("-placement %s is not supported %s (it places the edge list in host DRAM)", *placement, path)
		}
	}

	var g *emogi.Graph
	if *graphFile != "" {
		g, err = graph.ReadFile(*graphFile)
		if err != nil {
			log.Fatalf("loading %s: %v", *graphFile, err)
		}
	} else {
		g, err = emogi.BuildDataset(strings.ToUpper(*graphSym), *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}

	algoName := strings.ToLower(*algo)
	if *gpus > 1 {
		runMultiGPU(g, algoName, cfg, *gpus, *sources, *seed, *elemBytes)
		return
	}
	v, err := emogi.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := emogi.PolicyByName(*transport)
	if err != nil {
		log.Fatal(err)
	}

	sys := emogi.NewSystem(cfg)
	dg, err := sys.Load(g, emogi.WithTransportPolicy(pol), emogi.WithElemBytes(*elemBytes),
		emogi.WithPlacement(place))
	if err != nil {
		log.Fatalf("loading graph onto device: %v", err)
	}
	srcs := emogi.PickSources(g, *sources, *seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}

	// RunMany validates every run against the CPU reference.
	sum, err := sys.RunMany(dg, algoName, srcs, v)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("platform:   %s\n", cfg.Name)
	fmt.Printf("graph:      %s  |V|=%d |E|=%d (%.1f MB edge list, %d-byte elements)\n",
		g.Name, g.NumVertices(), g.NumEdges(),
		float64(g.EdgeListBytes(*elemBytes))/1e6, *elemBytes)
	fmt.Printf("run:        %s, %s kernel, %s transport, %d source(s)\n",
		sum.Algo, v, pol.Name(), len(sum.Results))
	fmt.Printf("mean time:  %v (simulated)\n", sum.MeanElapsed)
	fmt.Printf("iterations: %d (first source)\n", sum.Results[0].Iterations)
	fmt.Printf("PCIe:       %.2f GB/s average payload bandwidth\n", sum.MeanBandwidth()/1e9)
	fmt.Printf("traffic:    %s\n", sum.Monitor)
	amp := sum.IOAmplification(g.EdgeListBytes(*elemBytes))
	fmt.Printf("I/O amp:    %.2fx of edge-list bytes per run\n", amp)
	if sum.Stats.CXLRequests > 0 {
		fmt.Printf("CXL:        reqs=%d payload=%d bytes over the external tier's link\n",
			sum.Stats.CXLRequests, sum.Stats.CXLPayloadBytes)
	}
	fmt.Println("validated:  results match CPU reference")
	if st, isStatic := pol.Static(); *compare && (!isStatic || st == emogi.ZeroCopy) {
		sysU := emogi.NewSystem(cfg)
		dgU, err := sysU.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(emogi.UVM)), emogi.WithElemBytes(*elemBytes))
		if err != nil {
			log.Fatalf("loading UVM baseline: %v", err)
		}
		uvmSum, err := sysU.RunMany(dgU, algoName, srcs, emogi.Merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline:   UVM %v -> speedup %.2fx\n",
			uvmSum.MeanElapsed, emogi.Speedup(uvmSum, sum))
	}
	if *kernels {
		printKernelLog(sys.Device())
	}
	os.Exit(0)
}

// runMultiGPU measures the §7 multi-GPU engine, which runs bfs, sssp and
// cc; any other algorithm name is fatal.
func runMultiGPU(g *emogi.Graph, algo string, cfg emogi.SystemConfig, n, sources int, seed int64, elemBytes int) {
	ctx := context.Background()
	var run func(ms *core.MultiSystem, src int) (*emogi.Result, error)
	switch algo {
	case "bfs":
		run = func(ms *core.MultiSystem, src int) (*emogi.Result, error) { return ms.BFS(ctx, src) }
	case "sssp":
		run = func(ms *core.MultiSystem, src int) (*emogi.Result, error) { return ms.SSSP(ctx, src) }
	case "cc":
		run = func(ms *core.MultiSystem, _ int) (*emogi.Result, error) { return ms.CC(ctx) }
	default:
		log.Fatalf("-gpus %d supports -algo bfs, sssp or cc, not %q", n, algo)
	}
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewDevice(cfg.GPU)
	}
	ms, err := core.NewMultiSystem(devs, g, elemBytes)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Free()
	srcs := emogi.PickSources(g, sources, seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}
	var total time.Duration
	var res *emogi.Result
	runs := 0
	for _, src := range srcs {
		res, err = run(ms, src)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Validate(g); err != nil {
			log.Fatalf("validation failed: %v", err)
		}
		total += res.Elapsed
		runs++
		if algo == "cc" {
			break // no source vertex; one run is the measurement
		}
	}
	fmt.Printf("platform:   %s x%d\n", cfg.Name, n)
	fmt.Printf("run:        %s (multi-GPU), %d source(s)\n", res.App, runs)
	fmt.Printf("mean time:  %v (simulated)\n", total/time.Duration(runs))
	for i := 0; i < n; i++ {
		lo, hi := ms.Partition(i)
		fmt.Printf("  GPU %d owns vertices [%d, %d)\n", i, lo, hi)
	}
	fmt.Println("validated:  results match CPU reference")
}

// printKernelLog dumps the simulated device's per-launch statistics — the
// level-by-level view of how traffic and time evolve over a traversal.
func printKernelLog(dev *gpu.Device) {
	fmt.Println("\nper-kernel breakdown (last run):")
	fmt.Printf("%-28s %8s %10s %12s %12s %10s\n",
		"kernel", "warps", "PCIe reqs", "payload KB", "migrations", "elapsed")
	for _, ks := range dev.Kernels() {
		fmt.Printf("%-28s %8d %10d %12.1f %12d %10v\n",
			ks.Name, ks.Warps, ks.PCIeRequests,
			float64(ks.PCIePayloadBytes)/1e3, ks.UVMMigrations, ks.Elapsed)
	}
}
