// Package pack stands in for the shared packing engine, which is in the
// deterministic set: its decoder must not read the clock or the global
// math/rand source.
package pack

import (
	"math/rand"
	"time"
)

// Flagged: wall-clock read.
func deadline() int64 {
	return time.Now().Unix() // want "time.Now in a deterministic package"
}

// Flagged: the global math/rand source is randomly seeded.
func shuffle(perm []int) {
	rand.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] }) // want "draws from the global math/rand source"
}
