package memsys

import "fmt"

// Profile parameterises one PARSEC-like workload plus the memory-system
// geometry (Table 1). The ten named profiles substitute for the PARSEC
// 2.0 binaries the paper runs under Simics/GEMS: they are calibrated so
// that router idleness spans the 30-71% band the paper reports, with
// x264 the busiest and blackscholes the idlest (Section 3.1).
type Profile struct {
	Name string

	// Cache geometry (Table 1: 32KB 2-way L1, 256KB 16-way L2 banks,
	// 64-byte blocks).
	L1Sets        uint64
	L1Ways        int
	L2Sets        uint64
	L2Ways        int
	L1Latency     int
	L2Latency     int
	MemLatency    int
	MemBusyCycles int

	StoreBufEntries int

	// Workload shape.
	InstrPerCore         uint64
	MemOpFrac            float64 // memory ops per instruction in the memory phase
	ComputePhaseMemScale float64 // MemOpFrac multiplier during compute phases
	MemPhaseLen          int     // mean cycles per memory-intensive phase
	ComputePhaseLen      int     // mean cycles per compute phase
	PrivateBlocks        int     // per-core private working set (64B blocks)
	SharedBlocks         int     // chip-wide shared working set
	SharedFrac           float64 // fraction of accesses to the shared region
	WriteFrac            float64 // fraction of memory ops that are stores
}

// baseline returns the Table 1 memory-system geometry.
func baseline(name string) Profile {
	return Profile{
		Name:   name,
		L1Sets: 256, L1Ways: 2, // 32KB / 64B / 2-way
		L2Sets: 256, L2Ways: 16, // 256KB bank / 64B / 16-way
		L1Latency:       1,
		L2Latency:       6,
		MemLatency:      128,
		MemBusyCycles:   4,
		StoreBufEntries: 8,
		InstrPerCore:    60_000,
	}
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if p.L1Sets == 0 || p.L2Sets == 0 || p.L1Sets&(p.L1Sets-1) != 0 || p.L2Sets&(p.L2Sets-1) != 0 {
		return fmt.Errorf("memsys: cache sets must be a power of two in profile %q", p.Name)
	}
	if p.L1Ways < 1 || p.L2Ways < 1 || p.L1Ways > maxWays || p.L2Ways > maxWays {
		return fmt.Errorf("memsys: cache ways must be between 1 and %d in profile %q", maxWays, p.Name)
	}
	if p.MemOpFrac < 0 || p.MemOpFrac > 1 || p.SharedFrac < 0 || p.SharedFrac > 1 || p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("memsys: fractions out of range in profile %q", p.Name)
	}
	if p.PrivateBlocks < 1 || p.SharedBlocks < 0 {
		return fmt.Errorf("memsys: working set sizes invalid in profile %q", p.Name)
	}
	if p.InstrPerCore == 0 {
		return fmt.Errorf("memsys: zero instruction quota in profile %q", p.Name)
	}
	if p.L1Latency < 0 || p.L2Latency < 0 || p.MemLatency < 0 || p.MemBusyCycles < 1 {
		return fmt.Errorf("memsys: bad latencies in profile %q", p.Name)
	}
	if p.StoreBufEntries < 1 {
		return fmt.Errorf("memsys: store buffer must hold at least one entry in profile %q", p.Name)
	}
	return nil
}

// shape fills the workload-shape fields of a profile.
func shape(p Profile, memOp float64, priv, shared int, sharedFrac, writeFrac float64, memPhase, computePhase int) Profile {
	p.MemOpFrac = memOp
	p.ComputePhaseMemScale = 0.15
	p.MemPhaseLen = memPhase
	p.ComputePhaseLen = computePhase
	p.PrivateBlocks = priv
	p.SharedBlocks = shared
	p.SharedFrac = sharedFrac
	p.WriteFrac = writeFrac
	return p
}

// Profiles returns the ten PARSEC-named workloads in the paper's order.
// The knobs are calibrated against this repository's cache models so that
// the NoC load (and hence router idleness) spans the paper's reported
// range; see TestProfileCalibration.
func Profiles() []Profile {
	return []Profile{
		// blackscholes: tiny working set, compute-bound -> idlest network
		// (paper: 71.2% router idle).
		shape(baseline("blackscholes"), 0.18, 350, 512, 0.04, 0.25, 400, 2400),
		// bodytrack: moderate, bursty.
		shape(baseline("bodytrack"), 0.25, 900, 2048, 0.10, 0.28, 500, 1500),
		// canneal: large irregular working set, high miss rate.
		shape(baseline("canneal"), 0.42, 6000, 8192, 0.22, 0.42, 1200, 400),
		// dedup: streaming with sharing.
		shape(baseline("dedup"), 0.36, 2500, 4096, 0.18, 0.45, 900, 500),
		// ferret: pipeline-parallel, moderate sharing.
		shape(baseline("ferret"), 0.30, 1800, 3072, 0.16, 0.36, 700, 800),
		// fluidanimate: neighbour sharing, medium load.
		shape(baseline("fluidanimate"), 0.30, 1400, 2560, 0.14, 0.38, 700, 800),
		// raytrace: big read-mostly scene data.
		shape(baseline("raytrace"), 0.24, 2200, 6144, 0.20, 0.12, 700, 1100),
		// swaptions: small hot set, compute-bound.
		shape(baseline("swaptions"), 0.20, 500, 768, 0.06, 0.22, 450, 2000),
		// vips: image pipeline, streaming writes.
		shape(baseline("vips"), 0.36, 2200, 3584, 0.15, 0.48, 900, 450),
		// x264: heavy streaming + sharing -> busiest network
		// (paper: 30.4% router idle).
		shape(baseline("x264"), 0.52, 8000, 10240, 0.26, 0.52, 2000, 150),
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("memsys: unknown profile %q", name)
}
