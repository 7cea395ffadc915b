//go:build race

package server

// The race detector makes sync.Pool drop pooled values at random, so
// allocation counts over pooled batches mean nothing under -race.
func init() { raceEnabled = true }
