//go:build unix

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive advisory lock on the store directory. The
// segment files are single-writer: two processes appending to one store
// could interleave a frame mid-write, and Compact or Verify would delete
// or quarantine the segment a live process is appending to — so a
// second Open, Compact or Verify fails loudly here instead. The lock is
// released by Close (or when the offline pass ends) and dies with the
// process, so a crash never leaves a store permanently locked.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: store %s is in use by another process (flock: %w)", dir, err)
	}
	return f, nil
}

// unlock releases and closes the directory lock (nil-safe).
func unlock(f *os.File) {
	if f != nil {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}
}
