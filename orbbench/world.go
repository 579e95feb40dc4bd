package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
)

// slabSpans is the span capacity of each ORB's tracer in a traced run.
// The traced phase stops early once any slab is three quarters full,
// so a slab never wraps and self times never come from a truncated
// trace (analyze refuses a wrapped slab all the same).
const slabSpans = 1 << 17

// world is one set-up instance of a workload: its ORBs, servants and
// callers, warmed up and ready to run.
type world interface {
	// run drives the workload's closed-loop callers until ctl says stop
	// and returns one log per caller.
	run(ctl *control) []*callLog
	// classes names the call classes the logs use.
	classes() []string
	// base returns the ORBs and counters the world shares with all
	// workloads.
	base() *base
	// check verifies the workload's own invariants after a phase.
	check() error
	// layers reports the workload's own per-layer metrics after a phase;
	// traced is the log of a traced phase, nil after an untraced one.
	layers(traced *callLog) map[string]float64
	close()
}

// member is one ORB of a world.
type member struct {
	name string
	// server ORBs serve the benchmark's objects; the rest call them.
	server bool
	tier   string // server tier: "legacy" or "engine"
	plane  string // data plane: "tcp", "shm" or "kzc"
	orb    *orb.ORB
	tracer *trace.Tracer
}

// base holds what every world has: its ORBs, their transport counters
// and the payload bytes sent down the marshaled path, each of which the
// ORB copies exactly twice (marshal and unmarshal).
type base struct {
	cfg       *config
	traced    bool
	members   []*member
	wire      []*transport.Stats
	marshaled atomic.Int64
	// sockets names the shm:// socket files this world listens on.
	sockets []string
}

// start creates an ORB whose control plane is tcp:// and whose data
// plane is m.plane, with its own transport counters and, in a traced
// world, its own tracer.
func (b *base) start(m member, opts orb.Options) (*orb.ORB, error) {
	st := &transport.Stats{}
	opts.Transport = &transport.TCP{Stats: st}
	switch m.plane {
	case "shm":
		opts.DataTransport = &transport.SHM{Stats: st}
		if m.server {
			if err := os.MkdirAll(b.cfg.runDir, 0o755); err != nil {
				return nil, fmt.Errorf("shm socket directory: %w", err)
			}
			path := filepath.Join(b.cfg.runDir, fmt.Sprintf("shm-%d-%d.sock", os.Getpid(), socketSeq.Add(1)))
			b.sockets = append(b.sockets, path)
			opts.DataListenAddr = "shm://" + path
		}
	case "kzc":
		opts.DataTransport = &transport.KZC{Stats: st}
		if m.server {
			opts.DataListenAddr = "kzc://127.0.0.1:0"
		}
	}
	opts.ZeroCopy = true
	if b.traced {
		m.tracer = trace.New(slabSpans)
		opts.Tracer = m.tracer
	}
	o, err := orb.New(opts)
	if err != nil {
		return nil, fmt.Errorf("%s ORB: %w", m.name, err)
	}
	m.orb = o
	b.members = append(b.members, &m)
	b.wire = append(b.wire, st)
	return o, nil
}

var socketSeq atomic.Int64

// counters sums the ORB counters of every member.
func (b *base) counters() counters {
	var c counters
	for _, m := range b.members {
		c = c.add(readCounters(m.orb), 1)
	}
	return c
}

// tracers returns the members that record spans.
func (b *base) tracers() []*member {
	var out []*member
	for _, m := range b.members {
		if m.tracer != nil {
			out = append(out, m)
		}
	}
	return out
}

// invariants checks the fast-path contract over the world's whole
// life, warm-up included: payload copies only on the marshaled path,
// every shm deposit claimed, no lease expired, no call off the fast
// path.
func (b *base) invariants() error {
	c := b.counters()
	var errs []error
	if want := 2 * b.marshaled.Load(); c.payloadCopyBytes != want {
		errs = append(errs, fmt.Errorf("payload copies: %d bytes, want %d (2x the marshaled bytes; zero-copy ops must copy nothing)",
			c.payloadCopyBytes, want))
	}
	if c.shmClaims != c.shmDeposits {
		errs = append(errs, fmt.Errorf("shm: %d claims for %d deposits", c.shmClaims, c.shmDeposits))
	}
	if c.leaseExpiries != 0 {
		errs = append(errs, fmt.Errorf("%d deposit leases expired", c.leaseExpiries))
	}
	if n := c.zcFallbacks + c.dataChanFallbacks + c.kzcFallbacks + c.depositAborts; n != 0 {
		errs = append(errs, fmt.Errorf("%d calls left the fast path (zc %d, data channel %d, kzc %d, aborted deposits %d)",
			n, c.zcFallbacks, c.dataChanFallbacks, c.kzcFallbacks, c.depositAborts))
	}
	if c.retries != 0 {
		errs = append(errs, fmt.Errorf("%d retries in a fault-free run", c.retries))
	}
	return errors.Join(errs...)
}

// close shuts every ORB down, callers first, and removes the socket
// files the shm planes listened on.
func (b *base) close() {
	for i := len(b.members) - 1; i >= 0; i-- {
		b.members[i].orb.Shutdown()
	}
	for _, p := range b.sockets {
		_ = os.Remove(p) // usually already gone with its listener
	}
}

// runCallers runs n closed-loop callers, each with its own log, and
// returns once all of them have stopped.
func runCallers(n int, ctl *control, call func(i int, log *callLog)) []*callLog {
	logs := make([]*callLog, n)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = &callLog{win: &ctl.win}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call(i, logs[i])
		}(i)
	}
	wg.Wait()
	return logs
}
