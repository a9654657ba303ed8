package memsys

import "math/rand"

// corePhase is the core's execution state.
type corePhase uint8

const (
	phaseRun corePhase = iota
	phaseWaitLoad
	phaseRetryOp
	phaseDone
)

// core is a simple in-order core model: it retires one instruction per
// cycle while running, issues a memory operation every ~1/MemOpFrac
// instructions, blocks on load misses, and buffers stores. Workloads
// alternate memory-intensive and compute phases to produce the bursty,
// fragmented router idleness the paper analyses (Section 3.2).
type core struct {
	sys  *System
	node int
	rng  *rand.Rand

	instrDone   uint64
	quota       uint64
	gap         int // non-memory instructions until the next memory op
	jitter      uint64
	phase       corePhase
	pendingBlk  uint64
	pendingSt   bool
	finishCycle uint64

	loads, stores, retries uint64
}

func newCore(sys *System, node int, seed int64) *core {
	c := &core{
		sys:   sys,
		node:  node,
		rng:   rand.New(rand.NewSource(seed)),
		quota: sys.prof.InstrPerCore,
	}
	// Threads reach phase boundaries (barriers) slightly apart.
	c.jitter = uint64(c.rng.Intn(40))
	c.gap = c.drawGap()
	return c
}

func (c *core) done() bool { return c.phase == phaseDone }

// active reports whether ticking the core does anything: it runs or
// retries an operation, rather than waiting on a load or being done.
func (c *core) active() bool { return c.phase == phaseRun || c.phase == phaseRetryOp }

// inMemPhase reports whether this core currently executes the
// memory-intensive phase: the chip-global phase (multithreaded workloads
// alternate parallel memory phases and compute/serial phases together,
// separated by barriers) observed with a small per-core skew.
func (c *core) inMemPhase() bool {
	return c.sys.memPhaseAt(c.sys.now() - min64(c.jitter, c.sys.now()))
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func (c *core) drawGap() int {
	p := &c.sys.prof
	frac := p.MemOpFrac
	if !c.inMemPhase() {
		frac = p.MemOpFrac * p.ComputePhaseMemScale
	}
	if frac <= 0 {
		return 1 << 20
	}
	mean := 1/frac - 1
	if mean <= 0 {
		return 0
	}
	g := 0
	for c.rng.Float64() > 1.0/(mean+1) && g < 100_000 {
		g++
	}
	return g
}

// pickBlock draws the next memory address (as a block number) from the
// profile's working sets: a private region per core and a shared region,
// both with a hot subset to model temporal locality.
func (c *core) pickBlock() uint64 {
	p := &c.sys.prof
	if c.rng.Float64() < p.SharedFrac && p.SharedBlocks > 0 {
		hot := p.SharedBlocks / 8
		if hot < 1 {
			hot = 1
		}
		if c.rng.Float64() < 0.7 {
			return sharedBase + uint64(c.rng.Intn(hot))
		}
		return sharedBase + uint64(c.rng.Intn(p.SharedBlocks))
	}
	hot := p.PrivateBlocks / 8
	if hot < 1 {
		hot = 1
	}
	base := privateBase(c.node)
	if c.rng.Float64() < 0.8 {
		return base + uint64(c.rng.Intn(hot))
	}
	return base + uint64(c.rng.Intn(p.PrivateBlocks))
}

// Address-space layout: per-node private regions spaced far apart from
// 1<<24, and the shared region above them all at 1<<40. Every block
// number stays below 2^41, which a packed cacheLine relies on: its tag
// is shifted left two bits.
const sharedBase = uint64(1) << 40

func privateBase(node int) uint64 {
	return uint64(node+1) << 24
}

// tick advances the core one cycle.
func (c *core) tick() {
	switch c.phase {
	case phaseDone, phaseWaitLoad:
		return
	case phaseRetryOp:
		c.issue(c.pendingBlk, c.pendingSt)
		return
	case phaseRun:
		if c.instrDone >= c.quota {
			c.phase = phaseDone
			c.finishCycle = c.sys.now()
			c.sys.coresDone++
			return
		}
		c.instrDone++
		if c.gap > 0 {
			c.gap--
			return
		}
		c.gap = c.drawGap()
		store := c.rng.Float64() < c.sys.prof.WriteFrac
		c.issue(c.pickBlock(), store)
	}
}

func (c *core) issue(block uint64, store bool) {
	if store {
		c.stores++
	} else {
		c.loads++
	}
	switch c.sys.l1s[c.node].access(block, store) {
	case accDone:
		c.phase = phaseRun
	case accStallLoad:
		c.phase = phaseWaitLoad
	case accRetry:
		c.retries++
		if store {
			c.stores--
		} else {
			c.loads--
		}
		c.phase = phaseRetryOp
		c.pendingBlk = block
		c.pendingSt = store
	}
}

// loadDone unblocks a core stalled on a load, putting it back among the
// cores the System steps.
func (c *core) loadDone() {
	if c.phase == phaseWaitLoad {
		c.phase = phaseRun
		c.sys.running.Add(c.node)
	}
}
