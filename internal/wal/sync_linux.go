//go:build linux

package wal

import (
	"os"
	"syscall"
)

// syncData is the log's durability barrier on Linux: fdatasync(2). It
// flushes the file's data and only the metadata needed to read that
// data back; on a segment whose size preallocate fixed, that leaves out
// the inode-size update an fsync of a growing file journals per group.
func syncData(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			if err != nil {
				return os.NewSyscallError("fdatasync", err)
			}
			return nil
		}
	}
}

// preallocate fixes f's size at size bytes with fallocate(2), reserving
// the blocks as zeros. It fails on filesystems that do not support it;
// the caller treats that as "grow by appends".
func preallocate(f *os.File, size int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
		if err != syscall.EINTR {
			if err != nil {
				return os.NewSyscallError("fallocate", err)
			}
			return nil
		}
	}
}
