package sketchio

// segmentDecodes returns how many segments s has decoded from its file.
func (s *SpillStore) segmentDecodes() int { return int(s.decodes.Load()) }
