package meter

// SetClock replaces m's busy clock with fn, so tests can count and script
// clock reads. Call it before the meter is used.
func (m *Meter) SetClock(fn func() int64) { m.clk.fake = fn }
