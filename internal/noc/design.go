package noc

import (
	"fmt"
	"strings"

	"nord/internal/power"
)

// This file is the one place that says which design carries which
// mechanism. The paper's comparison set is a ladder — Conv_PG is No_PG
// plus a power-gating switch, Conv_PG_OPT adds early wakeup, NoRD adds
// the bypass ring — and every layer that needs a rung of it (the kernel,
// Params.Validate, sim's canonicaliser, the area and energy models)
// reads it from the designs table below. Nothing outside this file
// compares a Design to a constant to decide what hardware exists;
// TestNoDesignBranchesOutsideTable keeps it that way. A new design is a
// constant, a row, and the code of whatever mechanism it introduces.

// Design selects the power-gating scheme (Section 5.1's comparison set).
type Design int

const (
	// NoPG is the baseline without power-gating: routers are always on.
	NoPG Design = iota
	// ConvPG applies conventional power-gating: a router gates off when
	// its datapath is empty and wakes when a neighbor's switch-allocation
	// request or the local NI needs it, exposing the full wakeup latency.
	ConvPG
	// ConvPGOpt is ConvPG optimised with early wakeup: the WU signal is
	// generated as soon as the upstream route is computed, hiding
	// EarlyWakeupCycles of the wakeup latency and avoiding gate-offs for
	// idle periods shorter than the early-wakeup horizon.
	ConvPGOpt
	// NoRD decouples nodes from routers with the bypass ring: packets are
	// sent, received and forwarded through the NI bypass of gated-off
	// routers, and wakeups are driven by the NI VC-request metric.
	NoRD
)

// wakeRule is how a gated-off router learns that it is needed.
type wakeRule uint8

const (
	// wakeNever: there is no controller; routers stay on.
	wakeNever wakeRule = iota
	// wakeAtSA: the local node's pending injection, or a neighbor stalled
	// in switch allocation, asserts WU — EarlyWakeupCycles after the
	// route that needs the router was computed.
	wakeAtSA
	// wakeAtRC: as wakeAtSA, but WU is raised when the route is computed,
	// and a router holds off gating while a neighbor's allocated route
	// points at it.
	wakeAtRC
	// wakeAtNI: the NI's windowed VC-request count reaching the router's
	// threshold (Section 4.3); the node itself never needs the router.
	wakeAtNI
)

// mechanisms is one design's row.
type mechanisms struct {
	// names[0] is String(); DesignByName accepts every entry, whatever
	// the case.
	names  []string
	blocks power.Blocks
	wake   wakeRule
}

var designs = [...]mechanisms{
	NoPG:      {[]string{"No_PG", "nopg", "baseline"}, power.Blocks{}, wakeNever},
	ConvPG:    {[]string{"Conv_PG", "conv", "convpg"}, power.Blocks{PGSwitch: true}, wakeAtSA},
	ConvPGOpt: {[]string{"Conv_PG_OPT", "opt", "convpgopt"}, power.Blocks{PGSwitch: true, EarlyWU: true}, wakeAtRC},
	NoRD:      {[]string{"NoRD"}, power.Blocks{PGSwitch: true, EarlyWU: true, Bypass: true}, wakeAtNI},
}

// NumDesigns is the number of rows: Design values are 0..NumDesigns-1.
const NumDesigns = len(designs)

// row returns d's table row. A value outside the table (Validate refuses
// it) gets a row with no mechanisms that prints as the number.
func (d Design) row() *mechanisms {
	if d < 0 || int(d) >= NumDesigns {
		return &mechanisms{names: []string{fmt.Sprintf("design(%d)", int(d))}}
	}
	return &designs[d]
}

// String implements fmt.Stringer.
func (d Design) String() string { return d.row().names[0] }

// Blocks returns the hardware the design adds to the baseline router:
// the columns the area and energy models price, and what every layer
// above the kernel asks when a knob only exists with a block (PGSwitch:
// the design gates routers at all; Bypass: it has the ring, the misroute
// cap and the NI wakeup classes).
func (d Design) Blocks() power.Blocks { return d.row().blocks }

// Designs returns the paper's full comparison set in presentation order.
func Designs() []Design {
	out := make([]Design, NumDesigns)
	for i := range out {
		out[i] = Design(i)
	}
	return out
}

// DesignByName parses a design name: the canonical String() forms and the
// short aliases the CLIs and the serve API accept, case-insensitively.
func DesignByName(s string) (Design, error) {
	want := strings.TrimSpace(s)
	for i := range designs {
		for _, name := range designs[i].names {
			if strings.EqualFold(want, name) {
				return Design(i), nil
			}
		}
	}
	canonical := make([]string, NumDesigns)
	for i := range canonical {
		canonical[i] = strings.ToLower(Design(i).String())
	}
	return 0, fmt.Errorf("noc: unknown design %q (%s)", s, strings.Join(canonical, ", "))
}
