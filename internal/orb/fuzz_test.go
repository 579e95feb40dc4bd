package orb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/transport"
)

// fuzzServant answers every operation without blocking, so fuzz inputs
// that decode into valid requests cannot wedge the server.
type fuzzServant struct{}

func (fuzzServant) Interface() *Interface { return storeIface }

func (fuzzServant) Invoke(string, []any) (any, []any, error) {
	return nil, nil, &SystemException{Name: "NO_IMPLEMENT", Completed: CompletedNo}
}

// connReadLoopSeeds are the read-loop fuzz seeds: truncated headers,
// oversized sizes, garbage frames, and valid requests with and without
// deposit trains.
func connReadLoopSeeds() [][]byte {
	var seeds [][]byte
	// Valid request frame.
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	req := giop.RequestHeader{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("store"), Operation: "put_std", Principal: []byte{},
	}
	req.Marshal(e)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))})
	valid := append(append([]byte{}, hdr[:]...), e.Bytes()...)
	seeds = append(seeds, valid)
	// Truncated header.
	seeds = append(seeds, valid[:7])
	// Header promising more body than ever arrives.
	short := append([]byte{}, valid...)
	binary.BigEndian.PutUint32(short[8:], 1<<20)
	seeds = append(seeds, short)
	// Oversized message size.
	over := append([]byte{}, hdr[:]...)
	binary.BigEndian.PutUint32(over[8:], giop.MaxMessageSize+1)
	seeds = append(seeds, over)
	// Garbage, wrong magic, empty.
	seeds = append(seeds, []byte("this is not GIOP at all, not even close........"))
	seeds = append(seeds, []byte("GIOP\xff\xff\xff\xff\xff\xff\xff\xff"))
	seeds = append(seeds, []byte{})
	// CloseConnection and a fragment with no initial message.
	var cc [giop.HeaderSize]byte
	giop.EncodeHeader(cc[:], giop.Header{Major: 1, Type: giop.MsgCloseConnection})
	seeds = append(seeds, append([]byte{}, cc[:]...))
	var frag [giop.HeaderSize]byte
	giop.EncodeHeader(frag[:], giop.Header{Major: 1, Type: giop.MsgFragment, Size: 4})
	seeds = append(seeds, append(frag[:], 0xDE, 0xAD, 0xBE, 0xEF))
	// Request announcing a multi-segment deposit train: a DepositInfo
	// service context with several size-vector entries. The server must
	// route it through the scatter path (or reject it cleanly) without
	// a data channel ever delivering the announced segments.
	train := func(sizes []uint32) []byte {
		te := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
		tr := giop.RequestHeader{
			RequestID: 2, ResponseExpected: true,
			ObjectKey: []byte("store"), Operation: "put8", Principal: []byte{},
			ServiceContexts: []giop.ServiceContext{
				giop.DepositInfo{Arch: "test", Token: 7, Sizes: sizes}.Encode(),
			},
		}
		tr.Marshal(te)
		var th [giop.HeaderSize]byte
		giop.EncodeHeader(th[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
			Type: giop.MsgRequest, Size: uint32(len(te.Bytes()))})
		return append(append([]byte{}, th[:]...), te.Bytes()...)
	}
	seeds = append(seeds, train([]uint32{4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096}))
	// Zero-length entry inside the vector: decode must reject, never
	// panic or leak a partial claim.
	seeds = append(seeds, train([]uint32{4096, 0, 4096}))
	// Hostile sizes: huge entries and a long vector.
	seeds = append(seeds, train([]uint32{1 << 31, 1, 1 << 30}))
	seeds = append(seeds, train(make([]uint32, 255)))
	return seeds
}

// FuzzConnReadLoop feeds arbitrary byte streams to a live server
// connection: truncated headers, oversized sizes, garbage frames, and
// mutations of a valid request. The read loop must never panic or hang
// — it answers with well-formed GIOP (typically MessageError) or closes
// the connection.
func FuzzConnReadLoop(f *testing.F) {
	for _, seed := range connReadLoopSeeds() {
		f.Add(seed)
	}

	tr := &transport.InProc{}
	o, err := New(Options{Transport: tr, ZeroCopy: true,
		CallTimeout: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(o.Shutdown)
	if _, err := o.Activate("store", fuzzServant{}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := tr.Dial(o.Addr())
		if err != nil {
			t.Skip("server gone")
		}
		defer c.Close()
		// Drain concurrently: pipe writes block until read, and the
		// server may be answering while we are still feeding it.
		responses := make(chan []byte, 1)
		go func() {
			var all []byte
			buf := make([]byte, 4096)
			for {
				n, err := c.Read(buf)
				all = append(all, buf[:n]...)
				if err != nil {
					responses <- all
					return
				}
			}
		}()
		_, _ = c.Write(data)
		// Let the server react, then tear the connection down; the
		// drain goroutine unblocks on the closed pipe.
		time.Sleep(2 * time.Millisecond)
		_ = c.Close()
		all := <-responses

		// Whatever came back must be a sequence of well-formed GIOP
		// frames (a trailing partial frame is possible because we cut
		// the connection mid-write).
		for len(all) >= giop.HeaderSize {
			rh, err := giop.ReadHeader(bytes.NewReader(all))
			if err != nil {
				t.Fatalf("server sent malformed GIOP header % x: %v",
					all[:giop.HeaderSize], err)
			}
			if rh.Size > giop.MaxMessageSize {
				t.Fatalf("server sent oversized frame: %d", rh.Size)
			}
			frame := giop.HeaderSize + int(rh.Size)
			if frame > len(all) {
				break // partial trailing frame, cut by our Close
			}
			all = all[frame:]
		}
	})
}

// framedMsg is one logical message the framer yielded.
type framedMsg struct {
	hdr  giop.Header
	body []byte
}

// chunkReader returns data in chunks whose lengths cycle through
// sizes (each entry plus one); no sizes means the whole rest at once.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.sizes) > 0 {
		n = min(n, int(r.sizes[r.i%len(r.sizes)])+1)
		r.i++
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// runFramer drives a fresh framer over r until the stream ends or a
// framing rule trips, returning the messages and the terminal class:
// "eof" (clean end between messages), "truncated", "too-large" or
// "protocol".
func runFramer(o *ORB, r io.Reader) ([]framedMsg, string) {
	f := framer{o: o}
	defer f.release()
	var msgs []framedMsg
	for {
		n, err := r.Read(f.next())
		done, ferr := f.advance(n)
		if ferr != nil {
			var tl *errTooLarge
			if errors.As(ferr, &tl) {
				return msgs, "too-large"
			}
			return msgs, "protocol"
		}
		if done {
			hdr, body := f.take()
			msgs = append(msgs, framedMsg{hdr, append([]byte{}, body...)})
			o.putBody(body)
		}
		if err != nil {
			if f.fill == 0 && !f.inBody && !f.train {
				return msgs, "eof"
			}
			return msgs, "truncated"
		}
	}
}

// FuzzFramerChunking is the framer's differential property: how the
// transport happens to cut a byte stream into reads must not change
// the messages framed from it or how the stream ends. Each input runs
// in one shot, in fuzzer-chosen chunks, and one byte at a time.
func FuzzFramerChunking(f *testing.F) {
	var seeds [][]byte
	vectors, err := filepath.Glob(filepath.Join("..", "giop", "testdata", "*.bin"))
	if err != nil || len(vectors) == 0 {
		f.Fatalf("golden vectors: %v (found %d)", err, len(vectors))
	}
	var all []byte
	for _, v := range vectors {
		b, err := os.ReadFile(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
		all = append(all, b...)
	}
	seeds = append(seeds, all)
	seeds = append(seeds, connReadLoopSeeds()...)
	// A 3-fragment train carrying one Request body, then a LocateRequest.
	var stream []byte
	for i, part := range [][]byte{[]byte("first"), []byte("second"), []byte("third")} {
		h := giop.Header{Major: 1, Minor: 1, Type: giop.MsgFragment, Size: uint32(len(part))}
		if i == 0 {
			h.Type = giop.MsgRequest
		}
		if i < 2 {
			h.Flags |= giop.FlagMoreFragments
		}
		var b [giop.HeaderSize]byte
		giop.EncodeHeader(b[:], h)
		stream = append(append(stream, b[:]...), part...)
	}
	var lh [giop.HeaderSize]byte
	giop.EncodeHeader(lh[:], giop.Header{Major: 1, Type: giop.MsgLocateRequest, Size: 3})
	stream = append(append(stream, lh[:]...), 1, 2, 3)
	seeds = append(seeds, stream)
	for _, s := range seeds {
		f.Add(s, []byte{0})
		f.Add(s, []byte{4, 11, 0, 2})
	}

	// A small bound keeps hostile sizes cheap: they must trip the bound
	// before any allocation.
	o := &ORB{opts: Options{MaxMessageSize: 1 << 16},
		bodyFree: make(chan []byte, bodyFreeSlots)}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		want, wantEnd := runFramer(o, &chunkReader{data: data})
		for _, sizes := range [][]byte{cuts, {0}} {
			if len(sizes) == 0 {
				continue
			}
			got, gotEnd := runFramer(o, &chunkReader{data: data, sizes: sizes})
			if gotEnd != wantEnd {
				t.Fatalf("chunks %v: stream ended %q, one-shot %q", sizes, gotEnd, wantEnd)
			}
			if len(got) != len(want) {
				t.Fatalf("chunks %v: %d messages, one-shot %d", sizes, len(got), len(want))
			}
			for i := range got {
				if got[i].hdr != want[i].hdr || !bytes.Equal(got[i].body, want[i].body) {
					t.Fatalf("chunks %v: message %d differs: %+v vs %+v",
						sizes, i, got[i].hdr, want[i].hdr)
				}
			}
		}
	})
}
