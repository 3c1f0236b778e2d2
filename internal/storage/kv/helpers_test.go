package kv

// flush forces the memtable out through DataBytes, the footprint read
// that flushes pending writes before it counts them.
func flush(s *Store) { s.DataBytes() }

// Compact forces a full merge of all tables (flushing the memtable
// first).
func (s *Store) Compact() {
	if s.dur == nil {
		flush(s)
		return
	}
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.durFlush()
		s.durCompact()
	})
}
