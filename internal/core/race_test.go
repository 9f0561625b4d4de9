//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation bounds that rely on pooling do not hold.
const raceEnabled = true
