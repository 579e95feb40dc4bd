package zcbuf

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestWriteGuardRejectsUnalignedWindow: the page guard rejects a window
// that is not page-aligned whole pages, so the window falls back to the
// checksum. A store lands there, and End reports it.
func TestWriteGuardRejectsUnalignedWindow(t *testing.T) {
	var p Pool
	partial, err := p.Get(100) // aligned start, partial page
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Release()
	raw := make([]byte, 3*PageSize)
	off := 1
	if Aligned(raw[1:]) {
		off = 2
	}
	misaligned := Wrap(raw[off : off+PageSize])
	defer misaligned.Release()

	for name, b := range map[string]*Buffer{"partial-page": partial, "misaligned": misaligned} {
		if modified, err := Guard(b).End(); modified || err != nil {
			t.Fatalf("%s: untouched window End = (%v, %v), want (false, nil)", name, modified, err)
		}
		w := Guard(b)
		if writeFaults(b.Bytes()) {
			t.Fatalf("%s: store faulted in a checksummed window", name)
		}
		if modified, err := w.End(); !modified || err != nil {
			t.Fatalf("%s: End after an early write = (%v, %v), want (true, nil)", name, modified, err)
		}
	}
}

// TestWriteGuardFaultsEarlyWrite: a store into a page-aligned buffer
// while a guard window is open faults (a recoverable panic under
// SetPanicOnFault) and does not land, while loads keep working; End
// restores write access.
func TestWriteGuardFaultsEarlyWrite(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("page guard is linux-only (mprotect)")
	}
	var p Pool
	b, err := p.Get(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	b.Bytes()[0] = 0xA5 // no window open: writable

	w := Guard(b)
	faulted := writeFaults(b.Bytes())
	landed := b.Bytes()[0] != 0xA5 // loads stay legal while guarded
	if modified, err := w.End(); modified || err != nil {
		t.Fatalf("End = (%v, %v), want (false, nil)", modified, err)
	}
	if !faulted {
		t.Fatal("store into a guarded buffer did not fault")
	}
	if landed {
		t.Fatal("the faulting store landed")
	}
	b.Bytes()[0] = 0x5A
	if b.Bytes()[0] != 0x5A {
		t.Fatal("buffer not writable after End")
	}
}

// TestGuardWindowsNest: two overlapping windows over one page-aligned
// buffer. The pages stay read-only after the first window ends and
// become writable when the second ends.
func TestGuardWindowsNest(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("page guard is linux-only (mprotect)")
	}
	var p Pool
	b, err := p.Get(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	w1 := Guard(b)
	w2 := Guard(b)
	if _, err := w1.End(); err != nil {
		t.Fatal(err)
	}
	stillGuarded := writeFaults(b.Bytes()[PageSize:])
	if _, err := w2.End(); err != nil {
		t.Fatal(err)
	}
	if !stillGuarded {
		t.Fatal("buffer writable while the second window is still open")
	}
	if writeFaults(b.Bytes()) || writeFaults(b.Bytes()[PageSize:]) {
		t.Fatal("buffer still read-only after the last window ended")
	}
	if b.guardDepth != 0 || b.guardPages != 0 {
		t.Fatalf("guard state after the last End = (%d, %d), want (0, 0)", b.guardDepth, b.guardPages)
	}
}

// writeFaults attempts p[0] = 0xFF and reports whether the store
// faulted instead of landing.
func writeFaults(p []byte) (faulted bool) {
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	defer func() {
		if recover() != nil {
			faulted = true
		}
	}()
	p[0] = 0xFF
	return false
}
