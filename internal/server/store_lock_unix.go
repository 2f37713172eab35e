//go:build unix

package server

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockStoreDir takes an exclusive, non-blocking flock on dir/LOCK: one
// log has one writer. Closing the returned file releases the lock, as
// does the process exiting.
func lockStoreDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening result store %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("result store %s is in use by another process: %w", dir, err)
	}
	return f, nil
}
