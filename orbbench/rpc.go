package main

import (
	"fmt"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
)

// rpc_small: per-call software cost. Callers at window 1 over tcp://,
// one per server tier, with a seeded mix of 40% ping (_get_received, no
// payload), 40% zput of 4 KiB (zero-copy deposit) and 20% put of 4 KiB
// (marshaled).

const rpcPayload = 4 << 10

// rpcTiers are the two server tiers, each served by its own ORB.
var rpcTiers = []string{"legacy", "engine"}

// Call classes of one tier; class = tier*rpcOps + op.
const (
	rpcPing = iota
	rpcZput
	rpcPut
	rpcOps
)

// rpcMix is the per-block count of each op: 2 ping, 2 zput, 1 put.
var rpcMix = []int{rpcPing: 2, rpcZput: 2, rpcPut: 1}

// rpcWarmup is the number of calls each caller makes per tier before
// timing starts.
const rpcWarmup = 200

type rpcWorld struct {
	b       base
	client  *orb.ORB
	stores  []*store
	stubs   []media.Media_StoreStub
	callers int
}

func buildRPC(cfg *config, traced bool) (world, error) {
	w := &rpcWorld{b: base{cfg: cfg, traced: traced}, callers: min(cfg.nproc, len(rpcTiers))}
	var engine *orb.ORB
	for _, tier := range rpcTiers {
		o, err := w.b.start(member{name: "server." + tier, server: true, tier: tier, plane: "tcp"},
			orb.Options{Engine: tier == "engine"})
		if err != nil {
			w.b.close()
			return nil, err
		}
		if tier == "engine" {
			engine = o
		}
		st := &store{seed: cfg.seed, pool: o.Pool()}
		ref, err := o.Activate("store", media.Media_StoreSkeleton{Impl: st})
		if err != nil {
			w.b.close()
			return nil, fmt.Errorf("activate %s store: %w", tier, err)
		}
		w.stores = append(w.stores, st)
		w.stubs = append(w.stubs, media.Media_StoreStub{Ref: ref})
	}
	client, err := w.b.start(member{name: "client", plane: "tcp"}, orb.Options{})
	if err != nil {
		w.b.close()
		return nil, err
	}
	w.client = client
	for i, s := range w.stubs {
		// Re-resolve through the client ORB, as a remote caller would.
		w.stubs[i].Ref, err = client.StringToObject(s.Ref.String())
		if err != nil {
			w.b.close()
			return nil, fmt.Errorf("resolve %s store: %w", rpcTiers[i], err)
		}
	}
	// Warm-up: connections, data channels, body and buffer pools.
	warm := runCallers(len(rpcTiers), &control{}, func(i int, log *callLog) {
		sched := newSchedule(cfg.seed, uint64(1000+i), rpcMix)
		for k := 0; k < rpcWarmup; k++ {
			w.call(i, sched.next(), uint64(1000+i)<<32|uint64(k), log)
		}
	})
	if m := merge(warm); m.failed != 0 {
		w.b.close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed: %v", m.failed, m.attempted, m.errs)
	}
	if engine.Stats().EngineConns.Load() == 0 {
		w.b.close()
		return nil, fmt.Errorf("the engine tier serves no connection: the ORB fell back to goroutine-per-conn")
	}
	return w, nil
}

func (w *rpcWorld) base() *base { return &w.b }

func (w *rpcWorld) classes() []string {
	var out []string
	for _, tier := range rpcTiers {
		out = append(out, tier+"/ping", tier+"/zput", tier+"/put")
	}
	return out
}

// run starts one caller per CPU, at most one per tier; with fewer
// callers than tiers a caller alternates tiers call by call.
func (w *rpcWorld) run(ctl *control) []*callLog {
	return runCallers(w.callers, ctl, func(i int, log *callLog) {
		sched := newSchedule(w.b.cfg.seed, uint64(i), rpcMix)
		var tiers []int
		for t := range rpcTiers {
			if t%w.callers == i {
				tiers = append(tiers, t)
			}
		}
		for k := uint64(0); !ctl.stop.Load(); k++ {
			w.call(tiers[int(k)%len(tiers)], sched.next(), uint64(i)<<32|k, log)
		}
	})
}

// call makes one call of op on the tier's store and logs it.
func (w *rpcWorld) call(tier int, op uint8, seq uint64, log *callLog) {
	stub := w.stubs[tier]
	class := uint8(tier*rpcOps) + op
	if op == rpcPing {
		t0 := time.Now()
		_, err := stub.GetReceived()
		log.done(class, time.Since(t0), planeTCP, 0, err)
		return
	}
	pool := w.client.Pool()
	t0 := time.Now()
	buf, err := pool.Get(rpcPayload)
	log.pool(t0)
	if err != nil {
		log.done(class, 0, planeTCP, 0, err)
		return
	}
	stamp(buf.Bytes(), w.b.cfg.seed, seq)
	var n uint32
	var d time.Duration
	plane := planeTCP
	if op == rpcZput {
		t0 = time.Now()
		n, err = stub.Zput(buf)
		d = time.Since(t0)
	} else {
		plane = planeMarshaled
		w.b.marshaled.Add(rpcPayload)
		t0 = time.Now()
		n, err = stub.Put(buf.Bytes())
		d = time.Since(t0)
	}
	if err == nil && n != rpcPayload {
		err = fmt.Errorf("store acknowledged %d of %d bytes", n, rpcPayload)
	}
	t0 = time.Now()
	buf.Release()
	log.pool(t0)
	log.poolOps++
	log.done(class, d, plane, rpcPayload, err)
}

func (w *rpcWorld) check() error {
	for i, s := range w.stores {
		if n := s.bad.Load(); n != 0 {
			return fmt.Errorf("%s store rejected %d payloads", rpcTiers[i], n)
		}
	}
	return nil
}

func (w *rpcWorld) layers(*callLog) map[string]float64 { return nil }

func (w *rpcWorld) close() { w.b.close() }
