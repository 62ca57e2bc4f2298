package overlay

// HoldsWalk reports whether d still holds walk state: the walk record
// with its timer free list, or the prober's recycled rounds.
func (d *Descent) HoldsWalk() bool {
	return d.w != nil || d.prober.free != nil || d.prober.freeTO != nil
}
