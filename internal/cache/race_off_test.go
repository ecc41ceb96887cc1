//go:build !race

package cache

// raceEnabled reports whether the race detector instruments this build.
// Under -race the runtime intentionally randomizes sync.Pool reuse to
// surface races, so the slab-reuse assertions are skipped there.
const raceEnabled = false
