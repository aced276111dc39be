//go:build !race

package testeq

// RaceEnabled reports that the race detector is compiled in: allocation
// guards skip themselves, because sync.Pool then drops a share of Puts.
const RaceEnabled = false
