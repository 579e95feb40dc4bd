//go:build linux

package zcbuf

import "syscall"

// The reuse guard is spelled mprotect on Linux. The guarded window is
// always page-aligned and a whole number of pages inside the buffer's
// own memory, so the protection change can never spill onto
// neighbouring heap objects (mprotect works in whole pages — exactly
// why Guard checks the shape first).

// protectRO maps p read-only: stores fault, loads (and the kernel's
// send-side reads) proceed.
func protectRO(p []byte) error {
	return syscall.Mprotect(p, syscall.PROT_READ)
}

// protectRW restores write access.
func protectRW(p []byte) error {
	return syscall.Mprotect(p, syscall.PROT_READ|syscall.PROT_WRITE)
}
