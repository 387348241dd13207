//go:build !linux

package wal

import (
	"errors"
	"os"
)

// syncData is the log's durability barrier: (*os.File).Sync where the
// data-only flush is not wired up.
func syncData(f *os.File) error { return f.Sync() }

// preallocate is not wired up off Linux: segments grow by appends.
func preallocate(*os.File, int64) error { return errors.ErrUnsupported }
