//go:build unix

package server

import (
	"strings"
	"testing"
)

func TestStoreSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	st := mustOpenStore(t, dir, 0)
	st.put(storeID(1), storeDump(1))
	if _, err := openStore(dir, 0); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second open of a locked store: err = %v, want a refusal naming %s", err, dir)
	}
	// The refused opener touched nothing: the owner still serves.
	if got := st.get(storeID(1)); got == nil || got.Cycles != 1 {
		t.Fatalf("owner after a refused open = %+v", got)
	}
	mustClose(t, st)
	st2 := mustOpenStore(t, dir, 0)
	if st2.get(storeID(1)) == nil {
		t.Fatal("reopen after close lost the record")
	}
}
