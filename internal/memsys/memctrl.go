package memsys

import "fmt"

// memctrl is a memory controller at one of the four mesh corners
// (Table 1). Reads are answered with the fixed DRAM latency after
// queueing behind earlier accesses on the same channel; writes are
// fire-and-forget.
type memctrl struct {
	sys  *System
	node int
	inQ  msgQueue
	// nextFree models the single channel: back-to-back accesses are
	// spaced by BusyCycles.
	nextFree uint64
	reads    uint64
	writes   uint64
}

func newMemCtrl(sys *System, node int) *memctrl {
	return &memctrl{sys: sys, node: node}
}

// tick issues at most one access per cycle.
func (mc *memctrl) tick() {
	now := mc.sys.now()
	if now < mc.nextFree {
		return
	}
	m := mc.inQ.pop(now)
	if m == nil {
		return
	}
	mc.nextFree = now + uint64(mc.sys.prof.MemBusyCycles)
	switch m.Type {
	case MsgMemRead:
		mc.reads++
		// m.Requester is the home bank awaiting the data.
		mc.sys.sendDelayed(mc.node, m.Requester,
			&Msg{Type: MsgMemData, Block: m.Block, Requester: m.Requester},
			uint64(mc.sys.prof.MemLatency))
	case MsgMemWrite:
		mc.writes++
	default:
		panic(fmt.Sprintf("memsys: memctrl %d got unexpected %s", mc.node, m))
	}
}
