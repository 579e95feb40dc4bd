package transport

import (
	"errors"
	"os"
)

// Releaser returns a zero-copy view to its owner. It mirrors
// zcbuf.Releaser structurally, so a transport-issued release token can
// ride inside a zcbuf.Buffer without an adapter allocation.
type Releaser interface {
	Release()
}

// DirectReader is implemented by connections that can hand the caller
// a view of the next n received payload bytes without copying them —
// the shared-memory data plane's claim primitive. ok reports whether
// the view was available: false means the caller must fall back to the
// copying Read path (for example, the stream is not ring-backed, or
// the next record does not align with n). The view stays valid until
// release.Release() is called.
type DirectReader interface {
	ReadDirect(n int) (view []byte, release Releaser, ok bool, err error)
}

// DefaultZeroCopyThreshold is the minimum payload size for which a
// kernel zero-copy send (MSG_ZEROCOPY) is attempted when no explicit
// threshold is configured or negotiated. Below it, page pinning and
// completion bookkeeping cost more than the copy they save.
const DefaultZeroCopyThreshold = 32 << 10

// ErrZeroCopyUnavailable reports that a connection cannot perform
// kernel zero-copy sends — the kernel rejected SO_ZEROCOPY, the
// connection degraded after copied completions, or the stream never
// promoted to a data channel. Callers must fall back to a plain write
// (for the ORB: the standard marshaled path).
var ErrZeroCopyUnavailable = errors.New("transport: kernel zero-copy unavailable")

// ErrKernelZCUnsupported reports that the kzc transport is not
// available on this platform (non-Linux builds).
var ErrKernelZCUnsupported = errors.New("transport: kzc requires linux (MSG_ZEROCOPY + sendfile)")

// ZeroCopyWriter is implemented by connections that can send payload
// segments with kernel zero-copy (MSG_ZEROCOPY): the kernel pins the
// pages and transmits them without a user-to-kernel copy. Every send is
// a train: the segments go out back to back in vectored sendmsgs
// (normally exactly one), share one completion, and done fires exactly
// once when the kernel has released every page (the errqueue
// completion). A single deposit is a train of one. done(copied=true)
// means the kernel copied after all (loopback, or a driver without SG
// support) — the send still succeeded.
//
// ok=false means nothing was written and done will never fire; err is
// then ErrZeroCopyUnavailable (or wraps it) and the caller must take
// its fallback path. ok=true with err!=nil means the stream is broken
// mid-payload; done still fires exactly once (possibly only via the
// caller's lease sweeper if the kernel never reports).
type ZeroCopyWriter interface {
	WriteZeroCopy(segs [][]byte, done func(copied bool)) (ok bool, err error)
	// ZeroCopyThreshold returns the negotiated minimum payload size for
	// zero-copy sends on this connection.
	ZeroCopyThreshold() int
}

// FileSender is implemented by connections that can transmit a region
// of an open file directly disk→wire (sendfile/splice), so the bytes
// never enter user space.
type FileSender interface {
	SendFile(f *os.File, off, n int64) (int64, error)
}
