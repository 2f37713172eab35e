//go:build !unix

package server

import (
	"fmt"
	"os"
	"path/filepath"
)

// lockStoreDir creates dir/LOCK but cannot lock it on this platform:
// keeping one process per store directory is left to the operator.
func lockStoreDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening result store %s: %w", dir, err)
	}
	return f, nil
}
