package core

// WithoutReplay returns a copy of r without its provenance replay
// handle, for comparing reports field by field.
func WithoutReplay(r Report) Report {
	r.replay = nil
	return r
}
