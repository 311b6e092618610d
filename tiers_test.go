package emogi

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

func TestTierCatalogAndAliases(t *testing.T) {
	stacks := TierStacks()
	if len(stacks) != 2 || stacks[0].Name != "2tier" || stacks[1].Name != "3tier-cxl" {
		t.Fatalf("catalog = %+v", stacks)
	}
	for name, want := range map[string]string{
		"2tier": "2tier", "two-tier": "2tier", "pcie": "2tier", "default": "2tier", "": "2tier",
		"3tier-cxl": "3tier-cxl", "3tier": "3tier-cxl", "cxl": "3tier-cxl",
		"three-tier": "3tier-cxl", "CXL": "3tier-cxl", " 3TIER ": "3tier-cxl",
	} {
		e, err := TierStackByName(name)
		if err != nil {
			t.Errorf("TierStackByName(%q): %v", name, err)
			continue
		}
		if e.Name != want {
			t.Errorf("TierStackByName(%q) = %s, want %s", name, e.Name, want)
		}
	}
	_, err := TierStackByName("nvlink")
	if err == nil {
		t.Fatal("unknown tier stack should error")
	}
	for _, frag := range []string{"2tier", "3tier-cxl", "cxl", "pcie"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error should list %q: %v", frag, err)
		}
	}
}

// TestSystemConfigTierStackDerivation pins the memory hierarchy each
// platform preset derives from its hardware: a valid two-tier stack with
// the scaled capacities, service models, and link of the paper's machines.
func TestSystemConfigTierStackDerivation(t *testing.T) {
	const scale = 0.05
	for _, c := range []struct {
		cfg               SystemConfig
		gpuFull, hostFull int64
		hbm               memsys.DRAMModel
		link              pcie.LinkConfig
	}{
		{V100PCIe3(scale), 16 << 30, 256 << 30, memsys.HBM2V100(), pcie.Gen3x16()},
		{TitanXpPCIe3(scale), 12 << 30, 256 << 30, memsys.GDDR5XTitanXp(), pcie.Gen3x16()},
		{A100PCIe3(scale), 40 << 30, 1 << 40, memsys.HBM2eA100(), pcie.Gen3x16()},
		{A100PCIe4(scale), 40 << 30, 1 << 40, memsys.HBM2eA100(), pcie.Gen4x16()},
	} {
		ts := c.cfg.GPU.Tiers
		if err := ts.Validate(); err != nil {
			t.Errorf("%s: preset stack invalid: %v", c.cfg.Name, err)
			continue
		}
		if ts.HasCXL() {
			t.Errorf("%s: platform presets are two-tier", c.cfg.Name)
		}
		hbm, dram := ts.HBM(), ts.DRAM()
		if got, want := hbm.CapacityBytes, scaleBytes(c.gpuFull, scale); got != want {
			t.Errorf("%s: HBM capacity %d, want %d", c.cfg.Name, got, want)
		}
		if got, want := dram.CapacityBytes, scaleBytes(c.hostFull, scale); got != want {
			t.Errorf("%s: DRAM capacity %d, want %d", c.cfg.Name, got, want)
		}
		if hbm.Mem != c.hbm || dram.Mem != memsys.DDR4Quad() {
			t.Errorf("%s: memory models %q/%q, want %q/%q",
				c.cfg.Name, hbm.Mem.Name, dram.Mem.Name, c.hbm.Name, memsys.DDR4Quad().Name)
		}
		if dram.Link != c.link {
			t.Errorf("%s: DRAM link %q, want %q", c.cfg.Name, dram.Link.Name, c.link.Name)
		}
	}
}

func TestApplyTierStackThreeTier(t *testing.T) {
	base := V100PCIe3(0.05)
	cfg, err := ApplyTierStack(base, "3tier-cxl")
	if err != nil {
		t.Fatal(err)
	}
	ts := cfg.GPU.Tiers
	if !ts.HasCXL() {
		t.Fatal("3tier-cxl config has no CXL tier")
	}
	if got, want := ts.CXL().CapacityBytes, 4*base.GPU.Tiers.DRAM().CapacityBytes; got != want {
		t.Errorf("CXL capacity = %d, want 4x host DRAM = %d", got, want)
	}
	if base.GPU.Tiers.HasCXL() {
		t.Error("ApplyTierStack modified the caller's stack")
	}
	two, err := ApplyTierStack(base, "2tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(two.GPU.Tiers) != 2 || two.GPU.Tiers.HasCXL() {
		t.Errorf("2tier should keep the preset's two-tier stack, got %d tiers", len(two.GPU.Tiers))
	}
	if _, err := ApplyTierStack(base, "bogus"); err == nil {
		t.Error("unknown stack name should error")
	}
	if _, err := ApplyTierStack(SystemConfig{}, "3tier-cxl"); err == nil {
		t.Error("3tier-cxl over an empty GPU.Tiers should error")
	}
}

// TestThreeTierTraversalEndToEnd drives the public API through a 3-tier
// system: CXL placement must produce CXL traffic and exact results, and the
// two-tier system must reject CXL placement with a clear error.
func TestThreeTierTraversalEndToEnd(t *testing.T) {
	cfg, err := ApplyTierStack(V100PCIe3(0.02), "3tier-cxl")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(cfg)
	g, err := BuildDataset("GK", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g, WithPlacement(PlaceCXL))
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 71)[0]
	res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g); err != nil {
		t.Fatalf("CXL-placed traversal wrong: %v", err)
	}
	if res.Stats.CXLRequests == 0 || res.Stats.CXLPayloadBytes == 0 {
		t.Errorf("CXL-placed run recorded no CXL traffic: reqs=%d payload=%d",
			res.Stats.CXLRequests, res.Stats.CXLPayloadBytes)
	}

	// Two-tier systems reject CXL placement at load.
	sys2 := NewSystem(V100PCIe3(0.02))
	if _, err := sys2.Load(g, WithPlacement(PlaceCXL)); err == nil {
		t.Error("PlaceCXL on a two-tier system should fail at Load")
	}
}

// TestWithTierStackKeepsFaultHook builds a flaky-link system on the
// "3tier-cxl" stack: attaching the external tier through ApplyTierStack must
// keep the system's fault hook on the device's DRAM link, so the tier stack
// the device reports and the link its coalescer charges cannot disagree —
// and read faults keep firing. The caller's stack stays fault-free.
func TestWithTierStackKeepsFaultHook(t *testing.T) {
	inj, err := fault.New(fault.Config{Seed: 5, ReadFaultRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ApplyTierStack(V100PCIe3(smallScale), "3tier-cxl")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	sys := NewSystem(cfg)
	if cfg.GPU.Tiers.DRAM().Link.Faults != nil {
		t.Error("NewSystem installed the fault hook on the caller's tier stack")
	}
	ts := sys.Device().Tiers()
	if !ts.HasCXL() {
		t.Fatal("the device lost the 3tier-cxl stack's CXL tier")
	}
	if ts.DRAM().Link.Faults != inj {
		t.Fatalf("device DRAM link fault hook = %v, want the system's injector", ts.DRAM().Link.Faults)
	}
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 23)[0]
	for attempt := 0; attempt < 8; attempt++ {
		_, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Cold: true})
		if err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("faulted run: err = %v, want ErrTransient", err)
			}
			if inj.Counts().ReadFaults == 0 {
				t.Error("transient failure without a counted read fault")
			}
			return
		}
	}
	t.Fatal("a 5% read-fault rate never aborted a run on the 3tier-cxl stack")
}

// TestGPUDrivenPagingSystem checks the system-level paging selector: same
// migrations, faster UVM-bound runs.
func TestGPUDrivenPagingSystem(t *testing.T) {
	g, err := BuildDataset("GK", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 71)[0]
	run := func(gpuDriven bool) *Result {
		cfg := V100PCIe3(0.02)
		cfg.GPUDrivenPaging = gpuDriven
		sys := NewSystem(cfg)
		dg, err := sys.Load(g, WithTransportPolicy(StaticPolicy(UVM)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: Merged})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatal(err)
		}
		return res
	}
	cpu, gpu := run(false), run(true)
	if cpu.Stats.UVMMigrations != gpu.Stats.UVMMigrations {
		t.Errorf("paging models disagree on migrations: %d vs %d",
			cpu.Stats.UVMMigrations, gpu.Stats.UVMMigrations)
	}
	if gpu.Elapsed >= cpu.Elapsed {
		t.Errorf("GPU-driven paging should beat the CPU fault handler on a UVM run: %v vs %v",
			gpu.Elapsed, cpu.Elapsed)
	}
}

// TestFlagValueParsers: the shared parsers behind the binaries' -variant,
// -platform and -paging flags (and emogi-serve's "variant" field) accept
// every documented spelling, case-insensitively, and reject anything else
// with an error naming the value.
func TestFlagValueParsers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Variant
	}{
		{"naive", Naive}, {"Merged", Merged}, {"merged+aligned", MergedAligned},
		{"aligned", MergedAligned}, {"MERGEDALIGNED", MergedAligned},
	} {
		if got, err := ParseVariant(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"v100", "V100 + PCIe 3.0"}, {"TitanXp", "Titan Xp + PCIe 3.0"},
		{"a100-pcie3", "A100 + PCIe 3.0"}, {"a100-pcie4", "A100 + PCIe 4.0"}, {"a100", "A100 + PCIe 4.0"},
	} {
		if got, err := PlatformByName(tc.in, smallScale); err != nil || got.Name != tc.want {
			t.Errorf("PlatformByName(%q) = %q, %v; want %q", tc.in, got.Name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"cpu", false}, {"", false}, {"GPU", true},
	} {
		if got, err := ParsePaging(tc.in); err != nil || got != tc.want {
			t.Errorf("ParsePaging(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for want, parse := range map[string]func() error{
		`unknown variant "warp" (want naive, merged, or merged+aligned)`: func() error { _, err := ParseVariant("warp"); return err },
		`unknown platform "h100"`:                     func() error { _, err := PlatformByName("h100", 1); return err },
		`unknown paging model "os" (want cpu or gpu)`: func() error { _, err := ParsePaging("os"); return err },
	} {
		if err := parse(); err == nil || err.Error() != want {
			t.Errorf("error = %v, want %q", err, want)
		}
	}
}
