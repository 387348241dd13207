//go:build race

package ddb

// raceBuild reports whether the race detector is on. Under it sync.Pool
// drops a random quarter of its Puts, so allocation gates over pooled
// values read higher there.
const raceBuild = true
