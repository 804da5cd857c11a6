//go:build race

package server

// Under the race detector sync.Pool drops a quarter of what it is given,
// so pooled buffers are regrown and allocation counts read high.
func init() { raceEnabled = true }
