//go:build !race

package wal

// raceBuild reports whether the race detector is on (see race_test.go).
const raceBuild = false
