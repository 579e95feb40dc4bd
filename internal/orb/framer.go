package orb

import (
	"errors"
	"fmt"

	"zcorba/internal/giop"
)

// framer is the receive side of a GIOP control stream: bytes in,
// logical messages out. It owns every framing rule — header decode,
// the MaxMessageSize bound (checked before any allocation), and the
// fragment-train discipline — plus the partial state between reads, so
// the blocking read loop and the event engine's nonblocking service
// pass are two drivers of one type. A driver reads into next() (the
// header scratch, then straight into the pooled body: no staging
// copy), reports the byte count to advance, and collects each complete
// message with take. Exactly one reader drives a framer at a time.
type framer struct {
	o   *ORB
	hdr [giop.HeaderSize]byte
	// fill counts the bytes read into the current region: into hdr
	// while inBody is false, else into body, which spans the whole
	// logical message (earlier fragments included).
	fill   int
	inBody bool
	more   bool        // the frame being read has fragments after it
	train  bool        // a fragment train is open: only Fragments may follow
	msg    giop.Header // first header of the logical message
	body   []byte      // pooled logical body; nil between messages
}

// errFrame marks a framing-rule violation. The stream can no longer
// be trusted, so the connection is answered with MessageError and
// closed (conn.frameFailed); I/O errors only close.
type errFrame struct{ err error }

func (e *errFrame) Error() string { return e.err.Error() }
func (e *errFrame) Unwrap() error { return e.err }

// next returns the region the driver must fill next; it is never
// empty.
func (f *framer) next() []byte {
	if f.inBody {
		return f.body[f.fill:]
	}
	return f.hdr[f.fill:]
}

// advance records n bytes read into next()'s region. done reports that
// a whole logical message is ready for take; a non-nil error is an
// *errFrame, after which the driver stops reading.
func (f *framer) advance(n int) (done bool, err error) {
	f.fill += n
	if !f.inBody {
		if f.fill < giop.HeaderSize {
			return false, nil
		}
		if err := f.openFrame(); err != nil {
			return false, err
		}
	}
	if f.fill < len(f.body) {
		return false, nil
	}
	f.inBody, f.fill = false, 0
	if f.more {
		f.train = true
		return false, nil
	}
	return true, nil
}

// openFrame decodes a complete wire header and sizes the body region
// for its payload: a fresh pooled body for a message's first frame, an
// extension of the open one for a Fragment.
func (f *framer) openFrame() error {
	h, err := giop.DecodeHeader(f.hdr[:])
	if err != nil {
		return &errFrame{err}
	}
	max := f.o.maxMessageSize()
	if f.train {
		if h.Type != giop.MsgFragment {
			return &errFrame{fmt.Errorf("expected Fragment, got %v", h.Type)}
		}
		if total := int64(len(f.body)) + int64(h.Size); total > int64(max) {
			return &errFrame{&errTooLarge{size: total, max: max}}
		}
		f.fill = len(f.body)
		f.body = append(f.body, make([]byte, h.Size)...)
	} else {
		if h.Type == giop.MsgFragment {
			return &errFrame{errors.New("unexpected Fragment")}
		}
		if int64(h.Size) > int64(max) {
			return &errFrame{&errTooLarge{size: int64(h.Size), max: max}}
		}
		f.msg = h
		f.body = f.o.getBody(int(h.Size))
		f.fill = 0
	}
	f.inBody, f.more = true, h.MoreFragments()
	return nil
}

// take hands over the message advance reported done; the caller owns
// the pooled body from here on.
func (f *framer) take() (giop.Header, []byte) {
	h, body := f.msg, f.body
	f.body, f.train = nil, false
	return h, body
}

// release returns a partial message's pooled body and resets the
// framer, once its driver gives up on the stream.
func (f *framer) release() {
	f.o.putBody(f.body)
	*f = framer{o: f.o}
}
