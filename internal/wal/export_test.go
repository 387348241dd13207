package wal

import "os"

// SetSyncFile swaps the log's fsync for external tests (package
// wal_test) that need a failing disk under a real engine.Host.
func SetSyncFile(w *Log, fn func(*os.File) error) {
	w.mu.Lock()
	w.syncFile = fn
	w.mu.Unlock()
}

// BreakSegment closes the active segment file under the log, so every
// later write(2) fails, for external tests that need a failing write
// under a real engine.Host.
func BreakSegment(w *Log) {
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
}
