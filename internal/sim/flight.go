package sim

// DefaultFlightFrames is the ring capacity used when NewFlightRecorder
// is given a non-positive size.
const DefaultFlightFrames = 1024

// FlightFrame is one cycle's compact machine-state record: the
// frontend PC, retired-instruction count and the occupancy of the
// structures whose congestion explains most stalls (reorder buffer,
// load/store queues, outstanding misses and fill buffers).
type FlightFrame struct {
	Cycle   int64  `json:"cycle"`
	FetchPC uint64 `json:"fetchPC"`
	Retired uint64 `json:"retired"`
	ROB     int    `json:"rob"`
	SQ      int    `json:"sq"`
	LQ      int    `json:"lq"`
	MSHR    int    `json:"mshr"`
	LFB     int    `json:"lfb"`
}

// FlightRecorder is a fixed-size, allocation-free ring buffer of the
// last N cycles of machine state. Attach one with
// Machine.SetFlightRecorder; when a run fails the ring holds the final
// approach to the failure, dumpable as a Perfetto post-mortem through
// telemetry/export.FlightPerfetto.
type FlightRecorder struct {
	frames  []FlightFrame
	next    int
	wrapped bool
}

// NewFlightRecorder returns a recorder keeping the last n cycles
// (DefaultFlightFrames when n is not positive). The ring is allocated
// once here; recording allocates nothing.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightFrames
	}
	return &FlightRecorder{frames: make([]FlightFrame, n)}
}

// record captures the core's state after the cycle that just executed.
func (f *FlightRecorder) record(c *Core) {
	fr := &f.frames[f.next]
	fr.Cycle = c.cycle
	fr.FetchPC = c.fetchPC
	fr.Retired = c.retired
	fr.ROB = c.robOccupancy()
	fr.SQ = len(c.stq.q)
	fr.LQ = len(c.ldq.q)
	fr.MSHR = c.dc.trackers[pfNone].occupancy()
	lfb := 0
	for _, e := range c.dc.lfb[:c.dc.lfbLive] {
		if e.valid {
			lfb++
		}
	}
	fr.LFB = lfb
	f.next++
	if f.next == len(f.frames) {
		f.next = 0
		f.wrapped = true
	}
}

// Frames returns the recorded frames in chronological order.
func (f *FlightRecorder) Frames() []FlightFrame {
	if !f.wrapped {
		out := make([]FlightFrame, f.next)
		copy(out, f.frames[:f.next])
		return out
	}
	out := make([]FlightFrame, 0, len(f.frames))
	out = append(out, f.frames[f.next:]...)
	out = append(out, f.frames[:f.next]...)
	return out
}

// Reset empties the ring for reuse.
func (f *FlightRecorder) Reset() {
	f.next = 0
	f.wrapped = false
}

// FlightDump is a self-describing post-mortem snapshot of a machine's
// flight recorder: the configuration, where the frontend was pointing
// when the run ended, and the last recorded cycles.
type FlightDump struct {
	Config  string        `json:"config"`
	Cycle   int64         `json:"cycle"`
	FetchPC uint64        `json:"fetchPC"`
	Frames  []FlightFrame `json:"frames"`
}

// SetFlightRecorder attaches a flight recorder sampling every cycle of
// RunContext (nil detaches; the detached path pays one branch per
// cycle).
func (m *Machine) SetFlightRecorder(fr *FlightRecorder) { m.flight = fr }

// FlightDump captures the attached recorder's content, or nil when no
// recorder is attached.
func (m *Machine) FlightDump() *FlightDump {
	if m.flight == nil {
		return nil
	}
	return &FlightDump{
		Config:  m.cfg.Name,
		Cycle:   m.core.cycle,
		FetchPC: m.core.fetchPC,
		Frames:  m.flight.Frames(),
	}
}
