package orb

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// completionLog collects SendBuffers per-buffer callbacks.
type completionLog struct {
	mu   sync.Mutex
	errs map[int][]error
}

func newCompletionLog() *completionLog {
	return &completionLog{errs: map[int][]error{}}
}

func (l *completionLog) cb(i int, err error) {
	l.mu.Lock()
	l.errs[i] = append(l.errs[i], err)
	l.mu.Unlock()
}

// assertOnce asserts every index in [0, n) completed exactly once, and
// returns the per-index errors.
func (l *completionLog) assertOnce(t *testing.T, n int) []error {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]error, n)
	for i := 0; i < n; i++ {
		if got := len(l.errs[i]); got != 1 {
			t.Fatalf("buffer %d completed %d times, want 1 (%v)", i, got, l.errs[i])
		}
		out[i] = l.errs[i][0]
	}
	if len(l.errs) != n {
		t.Fatalf("%d distinct buffers completed, want %d", len(l.errs), n)
	}
	return out
}

// gatherBufs takes n pool buffers filled with distinct patterns and
// returns them with their total checksum.
func gatherBufs(t *testing.T, pl *zcbuf.Pool, n, size int) ([]*zcbuf.Buffer, uint32) {
	t.Helper()
	bufs := make([]*zcbuf.Buffer, n)
	var sum uint32
	for i := range bufs {
		b, err := pl.Get(size)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Bytes()
		for j := range p {
			p[j] = byte(j*3 + i*11 + 7)
		}
		sum += checksum(p)
		bufs[i] = b
	}
	return bufs, sum
}

func releaseBufs(bufs []*zcbuf.Buffer) {
	for _, b := range bufs {
		b.Release()
	}
}

// TestSendBuffersGatherDeposits sends an 8-buffer train over the
// tcp and inproc deposit planes: one call carries every segment, the
// server scatters them into per-buffer claims, and each buffer
// completes exactly once with a nil error.
func TestSendBuffersGatherDeposits(t *testing.T) {
	for _, mk := range []func(*testing.T, bool) *pair{tcpPair, inprocPair} {
		p := mk(t, true)
		var pl zcbuf.Pool
		bufs, want := gatherBufs(t, &pl, 8, 32<<10)
		log := newCompletionLog()
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb)
		if err != nil {
			t.Fatalf("SendBuffers: %v", err)
		}
		res, _, err := call.Wait()
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("checksum = %v, want %d", res, want)
		}
		for _, e := range log.assertOnce(t, 8) {
			if e != nil {
				t.Fatalf("completion error: %v", e)
			}
		}
		for i, b := range bufs {
			if b.Refs() != 1 {
				t.Fatalf("buffer %d refs = %d after completion, want 1", i, b.Refs())
			}
		}
		cs := p.client.Stats()
		if got := cs.GatherDeposits.Load(); got != 1 {
			t.Fatalf("GatherDeposits = %d, want 1", got)
		}
		if got := cs.GatherSegments.Load(); got != 8 {
			t.Fatalf("GatherSegments = %d, want 8", got)
		}
		if got := cs.GatherCompletions.Load(); got != 8 {
			t.Fatalf("GatherCompletions = %d, want 8", got)
		}
		if got := p.server.Stats().GatherScatters.Load(); got != 1 {
			t.Fatalf("server GatherScatters = %d, want 1", got)
		}
		releaseBufs(bufs)
	}
}

// TestSendBuffersSingleWritev asserts the coalescing contract of the
// tentpole: an 8-segment train costs exactly one data-plane writev
// (plus the control-message writev), visible as transport write
// counts.
func TestSendBuffersSingleWritev(t *testing.T) {
	st := &transport.Stats{}
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: &transport.TCP{Stats: st}, ZeroCopy: true})
	var pl zcbuf.Pool

	run := func() {
		t.Helper()
		bufs, want := gatherBufs(t, &pl, 8, 16<<10)
		defer releaseBufs(bufs)
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, nil)
		if err != nil {
			t.Fatalf("SendBuffers: %v", err)
		}
		res, _, err := call.Wait()
		if err != nil || res.(uint32) != want {
			t.Fatalf("Wait: res=%v err=%v", res, err)
		}
	}
	run() // warm: channel setup writes settle
	before := st.Snapshot()
	run()
	after := st.Snapshot()
	// One gather write for the control message (header+body) and one
	// for the whole 8-segment deposit train.
	if got := after.Writes - before.Writes; got != 2 {
		t.Fatalf("writes per train = %d, want 2 (1 control + 1 data writev)", got)
	}
	if got := after.GatherSegments - before.GatherSegments; got != 10 {
		t.Fatalf("gather segments per train = %d, want 10 (2 control + 8 data)", got)
	}
}

// TestSendBuffersValidation: shape errors surface before any buffer is
// retained or any callback fires.
func TestSendBuffersValidation(t *testing.T) {
	p := inprocPair(t, true)
	var pl zcbuf.Pool
	bufs, _ := gatherBufs(t, &pl, 2, 4096)
	defer releaseBufs(bufs)
	log := newCompletionLog()

	if _, err := p.ref.SendBuffers(t.Context(), nil, bufs, log.cb); err == nil {
		t.Fatal("nil operation accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb); err == nil {
		t.Fatal("wrong buffer count accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["swap"], bufs, log.cb); err == nil {
		t.Fatal("non-ZC operation accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"],
		[]*zcbuf.Buffer{bufs[0], nil}, log.cb); err == nil {
		t.Fatal("nil buffer accepted")
	}
	log.mu.Lock()
	if len(log.errs) != 0 {
		t.Fatalf("callbacks fired on validation failure: %v", log.errs)
	}
	log.mu.Unlock()
	for i, b := range bufs {
		if b.Refs() != 1 {
			t.Fatalf("buffer %d refs = %d after rejected sends, want 1", i, b.Refs())
		}
	}
}

// TestSendBuffersMarshaledPath: without a data channel the train rides
// the standard marshaled path — the call still succeeds and every
// buffer completes (completion means reuse-safe, not zero-copied).
func TestSendBuffersMarshaledPath(t *testing.T) {
	p := inprocPair(t, false)
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 8<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	for _, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("completion error: %v", e)
		}
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d on the marshaled path, want 0", got)
	}
}

// TestSendBuffersZeroLengthFallsBack: a zero-length segment cannot be
// announced as a deposit block (the wire format forbids it), so the
// whole train degrades to the marshaled path and still completes.
func TestSendBuffersZeroLengthFallsBack(t *testing.T) {
	p := tcpPair(t, true)
	var pl zcbuf.Pool
	bufs, _ := gatherBufs(t, &pl, 2, 8<<10)
	defer releaseBufs(bufs)
	empty, err := pl.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Release()
	empty.SetLen(0)
	want := checksum(bufs[0].Bytes())
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"],
		[]*zcbuf.Buffer{bufs[0], empty}, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	for _, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("completion error: %v", e)
		}
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d for a zero-length train, want 0", got)
	}
	if got := p.client.Stats().DepositsSent.Load(); got != 0 {
		t.Fatalf("DepositsSent = %d for a zero-length train, want 0", got)
	}
}

// guardShapes is the reuse-guard regression table: each row sends one
// two-buffer train through a pair whose client sets DebugReuseGuard and
// whose injector stalls the train's data write, and writes into the
// first buffer while the train is provably in flight.
var guardShapes = []struct {
	name  string
	check func(*testing.T, *pair)
}{
	{"page-aligned", checkGuardFaults},
	{"unaligned", checkGuardWarns},
}

// testWriteGuard runs every guardShapes row on a fresh pair from mk (a
// stall rule fires once per injector).
func testWriteGuard(t *testing.T, mk func(*testing.T) *pair) {
	for _, s := range guardShapes {
		t.Run(s.name, func(t *testing.T) {
			if raceDetectorEnabled {
				// The probe store races with the in-flight send by
				// design; the race detector logs it before the guard
				// can fault or flag it.
				t.Skip("reuse-guard probe store is a deliberate race")
			}
			s.check(t, mk(t))
		})
	}
}

// checkGuardFaults: a store into an in-flight pool buffer (page-aligned
// whole pages) faults and never lands, the payload arrives intact, and
// the buffer is writable again once its completion fires.
func checkGuardFaults(t *testing.T, p *pair) {
	if runtime.GOOS != "linux" {
		t.Skip("page guard is linux-only (mprotect)")
	}
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 32<<10)
	defer releaseBufs(bufs)
	orig := bufs[0].Bytes()[0]
	faulted := false
	res := guardProbe(t, p, bufs, func(b *zcbuf.Buffer) { faulted = storeFaults(b.Bytes()) })
	if !faulted {
		t.Fatal("store into a guarded in-flight buffer did not fault")
	}
	if bufs[0].Bytes()[0] != orig {
		t.Fatal("the faulting store landed in a guarded buffer")
	}
	if res != want {
		t.Fatal("payload corrupted despite the write guard")
	}
	bufs[0].Bytes()[0] = orig ^ 0xFF
	if bufs[0].Bytes()[0] != orig^0xFF {
		t.Fatal("buffer not writable after completion")
	}
}

// checkGuardWarns: a write into an in-flight buffer that does not start
// on a page boundary lands (the guard checksums such buffers) and raises
// ReuseWarnings by the time its completion fires.
func checkGuardWarns(t *testing.T, p *pair) {
	bufs := make([]*zcbuf.Buffer, 2)
	for i := range bufs {
		// Go aligns allocations to at least 8 bytes, so raw[1:] never
		// starts on a page boundary.
		raw := pattern(32<<10 + 1)
		bufs[i] = zcbuf.Wrap(raw[1:])
	}
	before := p.client.Stats().ReuseWarnings.Load()
	guardProbe(t, p, bufs, func(b *zcbuf.Buffer) { b.Bytes()[0] ^= 0xFF })
	if got := p.client.Stats().ReuseWarnings.Load() - before; got < 1 {
		t.Fatalf("ReuseWarnings rose by %d after an early write, want >= 1", got)
	}
}

// guardProbe sends bufs as one put2 train, runs write on bufs[0] while
// the injector stalls the train's data write, and returns the reply
// once every buffer's completion (asynchronous on kzc) has fired
// exactly once without error.
func guardProbe(t *testing.T, p *pair, bufs []*zcbuf.Buffer, write func(*zcbuf.Buffer)) uint32 {
	t.Helper()
	log := newCompletionLog()
	fired := make(chan struct{}, len(bufs))
	type outcome struct {
		call *Call
		err  error
	}
	sent := make(chan outcome, 1)
	go func() {
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs,
			func(i int, err error) {
				log.cb(i, err)
				fired <- struct{}{}
			})
		sent <- outcome{call, err}
	}()
	// The stall holds the train in flight well past this sleep.
	time.Sleep(100 * time.Millisecond)
	write(bufs[0])
	out := <-sent
	if out.err != nil {
		t.Fatalf("SendBuffers: %v", out.err)
	}
	res, _, err := out.call.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for range bufs {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for per-buffer completions")
		}
	}
	for i, e := range log.assertOnce(t, len(bufs)) {
		if e != nil {
			t.Fatalf("buffer %d completion error: %v", i, e)
		}
	}
	return res.(uint32)
}

// storeFaults attempts p[0] = 0xFF and reports whether the store
// faulted (recoverable panic under SetPanicOnFault) instead of
// landing — how the page guard surfaces an early write.
func storeFaults(p []byte) (faulted bool) {
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

// TestSendBuffersWriteGuardTCP: the reuse-guard table on the plain TCP
// deposit plane. It runs on every platform; off Linux the page-aligned
// row skips and the unaligned (checksum) row still runs.
func TestSendBuffersWriteGuardTCP(t *testing.T) {
	testWriteGuard(t, func(t *testing.T) *pair {
		inj := transport.NewFaultInjector(21).Add(transport.Rule{
			Op: transport.OpWrite, Class: transport.ClassData,
			Kind: transport.FaultStall, Nth: 2, Delay: 400 * time.Millisecond,
		})
		return chaosPair(t, &transport.TCP{}, inj,
			Options{ZeroCopy: true},
			Options{ZeroCopy: true, CallTimeout: 5 * time.Second, DebugReuseGuard: true})
	})
}
