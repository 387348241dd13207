//go:build race

package wal

// raceBuild reports whether the race detector is on. It inflates
// runtime.MemStats.TotalAlloc, so the allocation-bound test skips there.
const raceBuild = true
