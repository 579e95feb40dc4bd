package zcbuf

import (
	"hash/crc32"
	"sync"
)

// The reuse guard checks the one rule the zero-copy contract leaves to
// the application: a buffer handed to a send must not be written until
// that send reports it safe to reuse. A Window covers one such
// in-flight period. When the in-flight bytes form a page-aligned,
// whole-page window of memory the Buffer owns, the pages are mapped
// read-only (mprotect, Linux) for the duration, so an early store
// faults at the offending instruction and never lands — the
// memory-protection discipline of Power's zero-copy simplification.
// Every other buffer, and every buffer where mprotect is unavailable
// or fails, is checksummed when the window opens and re-checked when
// it ends: the write lands, but it is reported.
//
// Windows over one buffer nest. The pages stay read-only until the
// last overlapping window ends; the nesting state lives in the Buffer
// (guardDepth, guardPages), and guardMu serializes its transitions
// together with the mprotect calls they make. The guard is a debug
// tier, so one process-wide lock is cheap enough.

var (
	guardMu  sync.Mutex
	guardCRC = crc32.MakeTable(crc32.Castagnoli)
)

// Window is one open reuse-guard window over a Buffer.
type Window struct {
	b   *Buffer
	sum uint32
	// checked: the pages stayed writable, so End compares checksums.
	checked bool
}

// Guard opens a reuse-guard window over b's current contents. The
// caller must End the window before it drops the reference that keeps
// b alive, so the final Release never returns read-only pages to the
// pool.
func Guard(b *Buffer) Window {
	guardMu.Lock()
	if b.guardDepth == 0 && b.guardPages == 0 {
		// A failed mprotect (ENOMEM once splitting the mapping would
		// exceed vm.max_map_count) leaves guardPages at zero: this
		// window falls back to the checksum.
		if pages := b.protectable(); pages > 0 && protectRO(b.data[:pages*PageSize]) == nil {
			b.guardPages = int32(pages)
		}
	}
	b.guardDepth++
	w := Window{b: b, checked: b.guardPages == 0}
	guardMu.Unlock()
	if w.checked {
		w.sum = crc32.Checksum(b.Bytes(), guardCRC)
	}
	return w
}

// End closes the window. modified reports that b's bytes changed while
// the window was open (checksummed windows only: on read-only pages the
// offending store faulted instead). err reports that write access could
// not be restored when the last window ended; the pages then stay
// read-only and the next window's End retries.
func (w Window) End() (modified bool, err error) {
	b := w.b
	guardMu.Lock()
	b.guardDepth--
	if b.guardDepth == 0 && b.guardPages > 0 {
		if err = protectRW(b.data[:int(b.guardPages)*PageSize]); err == nil {
			b.guardPages = 0
		}
	}
	guardMu.Unlock()
	if w.checked {
		modified = crc32.Checksum(b.Bytes(), guardCRC) != w.sum
	}
	return modified, err
}

// protectable returns the page count of b's effective contents when
// they can be mprotected: page-aligned, a whole number of pages, and
// memory the Buffer owns (a shared-memory view is left to the
// checksum). Otherwise it returns zero.
func (b *Buffer) protectable() int {
	if b.shared != nil || b.n == 0 || b.n%PageSize != 0 || !b.IsPageAligned() {
		return 0
	}
	return b.n / PageSize
}
