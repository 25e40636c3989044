//go:build race

package blas

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of what it is given and allocation counts mean nothing.
const raceEnabled = true
