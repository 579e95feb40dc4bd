//go:build !linux

package zcbuf

import "errors"

// Without mprotect every reuse-guard window is checksummed.
var errNoProtect = errors.New("zcbuf: page protection requires linux")

func protectRO(p []byte) error { return errNoProtect }

func protectRW(p []byte) error { return errNoProtect }
