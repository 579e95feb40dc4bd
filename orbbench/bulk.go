package main

import (
	"fmt"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
	"zcorba/internal/zcbuf"
)

// bulk_planes: the data planes. One closed-loop caller runs a seeded
// schedule over three server ORBs whose data planes are tcp://, shm://
// and kzc://, at 64 KiB, 1 MiB and 4 MiB with call weights 50/40/10.

// Routes: an op on a plane.
const (
	routeZputTCP = iota
	routeZputSHM
	routeZputKZC
	routeZgetTCP
	routePutTCP // marshaled, fragmented above 1 MiB
	numRoutes
)

var routeNames = [numRoutes]string{"zput/tcp", "zput/shm", "zput/kzc", "zget/tcp", "put/tcp"}

// routeServer is the server (and client) each route uses: 0 tcp, 1 shm,
// 2 kzc; routePlane is the plane its payload travels on.
var (
	routeServer = [numRoutes]int{0, 1, 2, 0, 0}
	routePlane  = [numRoutes]int{planeTCP, planeSHM, planeKZC, planeTCP, planeMarshaled}
)

var bulkPlanes = []string{"tcp", "shm", "kzc"}

var bulkSizes = []int{64 << 10, 1 << 20, 4 << 20}

// bulkSizeMix is the per-route count of each size in a block: 50/40/10.
var bulkSizeMix = []int{10, 8, 2}

// bulkMix is the block composition over classes route*len(sizes)+size:
// every route equally often, each with the 50/40/10 size weights.
var bulkMix = func() []int {
	var mix []int
	for r := 0; r < numRoutes; r++ {
		mix = append(mix, bulkSizeMix...)
	}
	return mix
}()

type bulkWorld struct {
	b       base
	clients []*orb.ORB // one per plane, each with that plane's data transport
	stores  []*store
	stubs   []media.Media_StoreStub // per plane, via that plane's client
	zgets   uint64                  // zget replies received so far
}

func buildBulk(cfg *config, traced bool) (world, error) {
	w := &bulkWorld{b: base{cfg: cfg, traced: traced}}
	var iors []string
	for _, plane := range bulkPlanes {
		o, err := w.b.start(member{name: "server." + plane, server: true, tier: "legacy", plane: plane}, orb.Options{})
		if err != nil {
			w.b.close()
			return nil, err
		}
		st := &store{seed: cfg.seed, pool: o.Pool()}
		ref, err := o.Activate("store", media.Media_StoreSkeleton{Impl: st})
		if err != nil {
			w.b.close()
			return nil, fmt.Errorf("activate %s store: %w", plane, err)
		}
		w.stores = append(w.stores, st)
		iors = append(iors, ref.String())
	}
	for i, plane := range bulkPlanes {
		o, err := w.b.start(member{name: "client." + plane, plane: plane}, orb.Options{})
		if err != nil {
			w.b.close()
			return nil, err
		}
		ref, err := o.StringToObject(iors[i])
		if err != nil {
			w.b.close()
			return nil, fmt.Errorf("resolve %s store: %w", plane, err)
		}
		w.clients = append(w.clients, o)
		w.stubs = append(w.stubs, media.Media_StoreStub{Ref: ref})
	}
	// Warm-up: two calls of every class, so every plane is promoted
	// (shm ring mapped, kzc socket zero-copy enabled) and every pool
	// holds buffers of every size.
	log := &callLog{}
	for rep := 0; rep < 2; rep++ {
		for c := range bulkMix {
			w.call(uint8(c), uint64(1)<<40|uint64(rep*len(bulkMix)+c), log)
		}
	}
	if log.failed != 0 {
		w.b.close()
		return nil, fmt.Errorf("warm-up: %d of %d calls failed: %v", log.failed, log.attempted, log.errs)
	}
	if c := w.b.counters(); c.shmDeposits == 0 || c.kzcDeposits == 0 {
		w.b.close()
		return nil, fmt.Errorf("warm-up took no shm (%d) or kzc (%d) deposit: a plane was not promoted",
			c.shmDeposits, c.kzcDeposits)
	}
	return w, nil
}

func (w *bulkWorld) base() *base { return &w.b }

func (w *bulkWorld) classes() []string {
	var out []string
	for _, r := range routeNames {
		for _, s := range bulkSizes {
			out = append(out, fmt.Sprintf("%s/%dK", r, s>>10))
		}
	}
	return out
}

// run is one caller: the workload measures the planes, not
// concurrency.
func (w *bulkWorld) run(ctl *control) []*callLog {
	return runCallers(1, ctl, func(_ int, log *callLog) {
		sched := newSchedule(w.b.cfg.seed, 0, bulkMix)
		for k := uint64(0); !ctl.stop.Load(); k++ {
			w.call(sched.next(), k, log)
		}
	})
}

func (w *bulkWorld) call(class uint8, seq uint64, log *callLog) {
	route := int(class) / len(bulkSizes)
	size := bulkSizes[int(class)%len(bulkSizes)]
	srv, plane := routeServer[route], routePlane[route]
	stub := w.stubs[srv]
	if route == routeZgetTCP {
		t0 := time.Now()
		buf, err := stub.Zget(uint32(size))
		d := time.Since(t0)
		if err == nil {
			err = w.checkZget(buf, size)
			buf.Release()
		}
		log.done(class, d, plane, int64(size), err)
		return
	}
	pool := w.clients[srv].Pool()
	t0 := time.Now()
	buf, err := pool.Get(size)
	log.pool(t0)
	if err != nil {
		log.done(class, 0, plane, 0, err)
		return
	}
	stamp(buf.Bytes(), w.b.cfg.seed, seq)
	var n uint32
	var d time.Duration
	if route == routePutTCP {
		w.b.marshaled.Add(int64(size))
		t0 = time.Now()
		n, err = stub.Put(buf.Bytes())
		d = time.Since(t0)
	} else {
		t0 = time.Now()
		n, err = stub.Zput(buf)
		d = time.Since(t0)
	}
	if err == nil && int(n) != size {
		err = fmt.Errorf("store acknowledged %d of %d bytes", n, size)
	}
	t0 = time.Now()
	buf.Release()
	log.pool(t0)
	log.poolOps++
	log.done(class, d, plane, int64(size), err)
}

// checkZget verifies a zget reply: its length, its stamps, and that it
// carries the next number of the store's zget sequence.
func (w *bulkWorld) checkZget(buf *zcbuf.Buffer, size int) error {
	w.zgets++
	if buf.Len() != size {
		return fmt.Errorf("zget returned %d of %d bytes", buf.Len(), size)
	}
	seq, err := checkStamps(buf.Bytes(), w.b.cfg.seed)
	if err != nil {
		return fmt.Errorf("zget reply: %w", err)
	}
	if seq != w.zgets {
		return fmt.Errorf("zget reply is the store's reply %d, want %d", seq, w.zgets)
	}
	return nil
}

func (w *bulkWorld) check() error {
	for i, s := range w.stores {
		if n := s.bad.Load(); n != 0 {
			return fmt.Errorf("%s store rejected %d payloads", bulkPlanes[i], n)
		}
	}
	return nil
}

func (w *bulkWorld) layers(*callLog) map[string]float64 { return nil }

func (w *bulkWorld) close() { w.b.close() }
