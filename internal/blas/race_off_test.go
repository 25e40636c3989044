//go:build !race

package blas

const raceEnabled = false
