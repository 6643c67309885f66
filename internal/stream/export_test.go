package stream

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// DeltaIndex extracts the delta's index within its statement.
func DeltaIndex(seq uint64) uint64 { return seq & (1<<seqShift - 1) }

// SetRingCap overrides the per-view delta ring capacity (before wiring).
func (m *Manager) SetRingCap(n int) {
	if n > 0 {
		m.ringCap = n
	}
}
