//go:build race

package funcmech_test

// The race detector makes sync.Pool drop a share of what it is given, so a
// test that counts a pooled path's allocations skips under it.
func init() { raceEnabled = true }
