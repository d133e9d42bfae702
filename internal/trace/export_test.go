package trace

import "microsampler/internal/sim"

// UnitRow appends unit u's state row for the probe's cycle, as the
// collector samples it.
func UnitRow(u Unit, p *sim.Probe, dst []uint64) []uint64 { return unitSpecs[u].row(p, dst) }

// UnitGen returns unit u's change mark for the probe's cycle.
func UnitGen(u Unit, p *sim.Probe) uint64 { return unitSpecs[u].gen(p) }
