//go:build race

package broker

// raceEnabled reports that this test binary was built with the race
// detector, which deliberately randomizes sync.Pool (Puts are dropped a
// quarter of the time) to shake out lifecycle races — so pooled paths
// allocate under -race even when they are allocation-free in a normal
// build.
const raceEnabled = true
