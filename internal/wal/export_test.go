package wal

import "os"

// SetSyncFile swaps the log's fsync for external tests (package
// wal_test) that need a failing disk under a real engine.Host.
func SetSyncFile(w *Log, fn func(*os.File) error) {
	w.mu.Lock()
	w.syncFile = fn
	w.mu.Unlock()
}
