package kv

// Compact forces a full merge of all tables (flushing the memtable
// first).
func (s *Store) Compact() {
	if s.dur == nil {
		s.Flush()
		return
	}
	s.track(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.durFlush()
		s.durCompact()
	})
}
