package orb

import (
	"context"
	"fmt"
	"sync"

	"zcorba/internal/trace"
	"zcorba/internal/zcbuf"
)

// This file implements scatter/gather deposits: one invocation carries
// N payload buffers as a single deposit train (one vectored write on
// the data plane, one ring reservation on shared memory), and each
// buffer gets its own completion callback the moment its bytes are
// safe to reuse. With Options.DebugReuseGuard, each buffer's reuse-guard
// window spans SendBuffers entry to that callback, so an early reuse is
// a caught fault (or a counted warning) instead of silent corruption.

// Per-segment completion flags in gatherState.state.
const (
	gsFired uint8 = 1 << iota // callback has fired (exactly-once ledger)
	gsAsync                   // kernel still references the buffer
)

// gatherState is the shared completion ledger of one SendBuffers
// train. A buffer's callback fires exactly once, when BOTH of these
// hold: the send attempt chain has reached its outcome (finish), and
// any asynchronous kernel reference on the buffer has been released
// (MSG_ZEROCOPY completion settling the deposit lease). The second
// condition is what makes the callback mean "safe to reuse": a
// train that degraded to the marshaled fallback may re-read every
// buffer, so no callback fires before the outcome is known.
//
// States are pooled: once every segment has fired and no firer is
// still running its callbacks, the ledger returns to gatherPool so a
// steady-state train costs no per-train slice garbage. Recycling is
// safe because each async segment's lease notify fires exactly once
// (see zcbuf.GrantNotify), so nothing can touch the ledger after the
// last segment fires.
type gatherState struct {
	o  *ORB
	cb func(i int, err error)

	mu        sync.Mutex
	bufs      []*zcbuf.Buffer
	guards    []zcbuf.Window // per-buffer reuse-guard windows; empty when the guard is off
	state     []uint8
	asyncErr  []error // outcome reported by the async release
	due       []int   // scratch for finish's fire list
	nfired    int
	inFire    int // firers currently running callbacks outside mu
	finished  bool
	finishErr error
	start     int64
}

var gatherPool = sync.Pool{New: func() any { return new(gatherState) }}

func newGatherState(o *ORB, bufs []*zcbuf.Buffer, cb func(i int, err error)) *gatherState {
	g := gatherPool.Get().(*gatherState)
	n := len(bufs)
	g.o, g.cb = o, cb
	g.bufs = append(g.bufs[:0], bufs...)
	if cap(g.state) < n {
		g.state = make([]uint8, n)
		g.asyncErr = make([]error, n)
	} else {
		g.state = g.state[:n]
		g.asyncErr = g.asyncErr[:n]
		clear(g.state)
	}
	g.nfired, g.inFire = 0, 0
	g.finished, g.finishErr = false, nil
	g.start = trace.Now()
	return g
}

// recycle returns the ledger to the pool, dropping every reference it
// holds (the backing arrays are kept for the next train).
func (g *gatherState) recycle() {
	g.o, g.cb = nil, nil
	for i := range g.bufs {
		g.bufs[i] = nil
	}
	g.bufs = g.bufs[:0]
	clear(g.asyncErr)
	clear(g.guards)
	g.guards = g.guards[:0]
	gatherPool.Put(g)
}

// fireDone retires one firer; the last one out (all segments fired,
// nobody else mid-callback) recycles the ledger.
func (g *gatherState) fireDone(n int) {
	g.mu.Lock()
	g.inFire -= n
	recycle := g.finished && g.nfired == len(g.bufs) && g.inFire == 0
	g.mu.Unlock()
	if recycle {
		g.recycle()
	}
}

// markAsync records that segment i's buffer is referenced by the
// kernel (a MSG_ZEROCOPY send was issued); its callback is deferred
// until asyncDone reports the release.
func (g *gatherState) markAsync(i int) {
	g.mu.Lock()
	g.state[i] |= gsAsync
	g.mu.Unlock()
}

// asyncDone reports that the kernel released segment i's pages (the
// zero-copy completion settled the lease, or the sweeper reclaimed
// it — err carries the lease-expiry error in the latter case). If the
// send chain already finished, the callback fires now; otherwise it
// fires at finish.
func (g *gatherState) asyncDone(i int, err error) {
	g.mu.Lock()
	g.state[i] &^= gsAsync
	g.asyncErr[i] = err
	fire := g.finished && g.state[i]&gsFired == 0
	if fire {
		g.state[i] |= gsFired
		g.nfired++
		g.inFire++
		if err == nil {
			err = g.finishErr
		}
	}
	g.mu.Unlock()
	if fire {
		g.fire(i, err)
		g.fireDone(1)
	}
}

// finish reports the outcome of the send attempt chain (nil: the
// request left this process — deposited, marshaled, or completed
// locally). Every segment without an outstanding kernel reference
// completes now; the rest complete as their releases arrive.
func (g *gatherState) finish(err error) {
	g.mu.Lock()
	g.finished = true
	g.finishErr = err
	due := g.due[:0]
	for i := range g.state {
		if g.state[i]&(gsFired|gsAsync) != 0 {
			continue
		}
		g.state[i] |= gsFired
		due = append(due, i)
	}
	g.due = due
	g.nfired += len(due)
	g.inFire += len(due)
	g.mu.Unlock()
	for _, i := range due {
		e := g.asyncErr[i]
		if e == nil {
			e = err
		}
		g.fire(i, e)
	}
	g.fireDone(len(due))
}

// fire closes segment i's reuse-guard window, releases its per-send
// pin and runs the application callback. Exactly-once is guaranteed by
// the state[] ledger.
func (g *gatherState) fire(i int, err error) {
	if len(g.guards) > 0 {
		g.o.endGuard(g.guards[i])
	}
	g.bufs[i].Release()
	g.o.stats.GatherCompletions.Add(1)
	if tr := g.o.tracer; tr != nil {
		tr.CompletionLatencyNS.Record(trace.Now() - g.start)
	}
	if g.cb != nil {
		g.cb(i, err)
	}
}

// SendBuffers invokes op with bufs as its (all ZC octet stream)
// in-parameters, gathering the buffers into a single deposit train on
// the data plane: one vectored write on tcp/kzc channels, one ring
// reservation on shared memory. onComplete(i, err) fires exactly once
// per buffer — possibly on another goroutine — when buffer i is safe
// to reuse or modify; err is non-nil when the train failed before the
// buffer's bytes were durably consumed. Completion is about buffer
// reuse, not server receipt: the invocation's outcome arrives through
// the returned Call.
//
// Each buffer is retained for the duration of its send. With
// Options.DebugReuseGuard, a write to buffer i before its completion
// faults (page-aligned whole-page buffers on Linux) or counts a
// Stats.ReuseWarnings (every other buffer).
func (r *ObjectRef) SendBuffers(ctx context.Context, op *Operation,
	bufs []*zcbuf.Buffer, onComplete func(i int, err error)) (*Call, error) {
	if op == nil {
		return nil, fmt.Errorf("orb: SendBuffers: nil operation")
	}
	in := op.InParams()
	if len(in) != len(bufs) {
		return nil, fmt.Errorf("orb: SendBuffers: %s has %d in-parameters, got %d buffers",
			op.Name, len(in), len(bufs))
	}
	for i, p := range in {
		if !p.Type.IsZCOctetSeq() {
			return nil, fmt.Errorf("orb: SendBuffers: %s parameter %d (%s) is not a ZC octet stream",
				op.Name, i, p.Name)
		}
		if bufs[i] == nil {
			return nil, fmt.Errorf("orb: SendBuffers: buffer %d is nil", i)
		}
	}
	o := r.orb
	g := newGatherState(o, bufs, onComplete)
	args := make([]any, len(bufs))
	for i, b := range bufs {
		b.Retain()
		args[i] = b
		if o.opts.DebugReuseGuard {
			g.guards = append(g.guards, zcbuf.Guard(b))
		}
	}
	call := r.startCtxG(ctx, op, args, o.tracer.NewTrace(), 1, g)
	if call.done {
		g.finish(call.err)
	} else {
		g.finish(nil)
	}
	return call, nil
}

// endGuard closes one reuse-guard window (Options.DebugReuseGuard): a
// checksum mismatch counts a ReuseWarnings, and a failure to restore
// write access is reported rather than dropped.
func (o *ORB) endGuard(w zcbuf.Window) {
	modified, err := w.End()
	if modified {
		o.stats.ReuseWarnings.Add(1)
		o.logf("orb: reuse guard: deposit buffer modified before its send completed")
	}
	if err != nil {
		o.logf("orb: reuse guard: restoring write access: %v", err)
	}
}
