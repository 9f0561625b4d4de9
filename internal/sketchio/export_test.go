package sketchio

// segmentDecodes returns how many segments s has decoded from its file.
func (s *SpillStore) segmentDecodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decodes
}
