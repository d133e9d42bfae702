package sim

// WalkROB counts the ROB's non-folded and folded uops by a full walk of
// rob.q, the count robOccupancy keeps in step instead.
func (p *Probe) WalkROB() (occupied, folded int) {
	for _, h := range p.c.rob.q {
		if p.c.uops[h].folded {
			folded++
		} else {
			occupied++
		}
	}
	return occupied, folded
}

// WalkLFB appends the LFB-Data and LFB-ADDR rows built by walking every
// fill-buffer slot, not only those below lfbLive, and counts the valid
// slots at or above lfbLive.
func (p *Probe) WalkLFB(data, addrs []uint64) ([]uint64, []uint64, int) {
	d := p.c.dc
	above := 0
	for i, e := range d.lfb {
		if !e.valid {
			continue
		}
		if i >= d.lfbLive {
			above++
		}
		if e.fillAt <= p.c.cycle {
			data = append(data, e.data)
		} else {
			data = append(data, 0)
		}
		addrs = append(addrs, e.lineAddr<<d.cache.lineShift)
	}
	return data, addrs, above
}
