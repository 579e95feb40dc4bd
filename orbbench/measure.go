package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

// Data planes a payload byte can travel on.
const (
	planeTCP = iota
	planeSHM
	planeKZC
	planeMarshaled
	numPlanes
)

var planeNames = [numPlanes]string{"tcp", "shm", "kzc", "marshaled"}

// callLog is one caller's record of a phase. Each caller owns its log,
// so recording takes no lock. Latencies go into fixed-size histograms,
// one per call class and one per measurement window.
type callLog struct {
	// win is the current window index, advanced by the phase's sampler;
	// nil logs everything in window 0.
	win       *atomic.Int32
	classes   []*hist
	windows   []*hist
	winBytes  []int64
	calls     int64 // completed calls
	attempted int64
	failed    int64
	// bytes counts verified payload bytes, both directions.
	bytes int64
	// planeBytes and planeNS are the payload bytes and the call time of
	// each plane's calls.
	planeBytes [numPlanes]int64
	planeNS    [numPlanes]int64
	// poolNS is the time spent in zcbuf.Pool Get and Release, over
	// poolOps Get/Release pairs.
	poolNS  int64
	poolOps int64
	errs    []string
}

// done records one call. A call that returned err, or whose payload
// failed its check, counts as failed and adds no latency sample.
func (l *callLog) done(class uint8, d time.Duration, plane int, bytes int64, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 4 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	w := 0
	if l.win != nil {
		w = int(l.win.Load())
	}
	for len(l.windows) <= w {
		l.windows = append(l.windows, new(hist))
		l.winBytes = append(l.winBytes, 0)
	}
	for len(l.classes) <= int(class) {
		l.classes = append(l.classes, new(hist))
	}
	l.windows[w].add(int64(d))
	l.classes[class].add(int64(d))
	l.winBytes[w] += bytes
	l.calls++
	l.bytes += bytes
	l.planeBytes[plane] += bytes
	l.planeNS[plane] += int64(d)
}

// pool times one zcbuf.Pool operation that started at t0.
func (l *callLog) pool(t0 time.Time) {
	l.poolNS += int64(time.Since(t0))
}

// all returns the latency histogram of every completed call.
func (l *callLog) all() *hist {
	h := new(hist)
	for _, c := range l.classes {
		h.merge(c)
	}
	return h
}

// merge folds the logs of a phase's callers into one.
func merge(logs []*callLog) *callLog {
	m := &callLog{}
	for _, l := range logs {
		for i, h := range l.windows {
			for len(m.windows) <= i {
				m.windows = append(m.windows, new(hist))
				m.winBytes = append(m.winBytes, 0)
			}
			m.windows[i].merge(h)
			m.winBytes[i] += l.winBytes[i]
		}
		for i, h := range l.classes {
			for len(m.classes) <= i {
				m.classes = append(m.classes, new(hist))
			}
			m.classes[i].merge(h)
		}
		m.calls += l.calls
		m.attempted += l.attempted
		m.failed += l.failed
		m.bytes += l.bytes
		for p := range m.planeBytes {
			m.planeBytes[p] += l.planeBytes[p]
			m.planeNS[p] += l.planeNS[p]
		}
		m.poolNS += l.poolNS
		m.poolOps += l.poolOps
		m.errs = append(m.errs, l.errs...)
	}
	return m
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// counters is the subset of orb.Stats the benchmark reads.
type counters struct {
	payloadCopyBytes, depositsSent                    int64
	zcFallbacks, dataChanFallbacks, kzcFallbacks      int64
	depositAborts, retries, bodyAllocs, bodyReuses    int64
	leaseExpiries, shmDeposits, shmClaims             int64
	kzcDeposits, kzcCompletions, kzcCopiedCompletions int64
	gatherDeposits, gatherSegments                    int64
	engineWakeups, requestsServed                     int64
}

func readCounters(o *orb.ORB) counters {
	s := o.Stats()
	return counters{
		payloadCopyBytes: s.PayloadCopyBytes.Load(), depositsSent: s.DepositsSent.Load(),
		zcFallbacks: s.ZCFallbacks.Load(), dataChanFallbacks: s.DataChanFallbacks.Load(),
		kzcFallbacks: s.KzcFallbacks.Load(), depositAborts: s.DepositAborts.Load(),
		retries: s.Retries.Load(), bodyAllocs: s.BodyAllocs.Load(), bodyReuses: s.BodyReuses.Load(),
		leaseExpiries: s.LeaseExpiries.Load(), shmDeposits: s.ShmDeposits.Load(),
		shmClaims: s.ShmClaims.Load(), kzcDeposits: s.KzcDeposits.Load(),
		kzcCompletions: s.KzcCompletions.Load(), kzcCopiedCompletions: s.KzcCopiedCompletions.Load(),
		gatherDeposits: s.GatherDeposits.Load(), gatherSegments: s.GatherSegments.Load(),
		engineWakeups: s.EngineWakeups.Load(), requestsServed: s.RequestsServed.Load(),
	}
}

// add returns c+d (sign -1: c-d), field by field.
func (c counters) add(d counters, sign int64) counters {
	return counters{
		c.payloadCopyBytes + sign*d.payloadCopyBytes, c.depositsSent + sign*d.depositsSent,
		c.zcFallbacks + sign*d.zcFallbacks, c.dataChanFallbacks + sign*d.dataChanFallbacks,
		c.kzcFallbacks + sign*d.kzcFallbacks, c.depositAborts + sign*d.depositAborts,
		c.retries + sign*d.retries, c.bodyAllocs + sign*d.bodyAllocs, c.bodyReuses + sign*d.bodyReuses,
		c.leaseExpiries + sign*d.leaseExpiries, c.shmDeposits + sign*d.shmDeposits,
		c.shmClaims + sign*d.shmClaims, c.kzcDeposits + sign*d.kzcDeposits,
		c.kzcCompletions + sign*d.kzcCompletions, c.kzcCopiedCompletions + sign*d.kzcCopiedCompletions,
		c.gatherDeposits + sign*d.gatherDeposits, c.gatherSegments + sign*d.gatherSegments,
		c.engineWakeups + sign*d.engineWakeups, c.requestsServed + sign*d.requestsServed,
	}
}

// wire sums the transport counters of a world.
type wire struct{ writes, reads, bytesSent, bytesRecv int64 }

func readWire(st []*transport.Stats) wire {
	var w wire
	for _, s := range st {
		w.writes += s.Writes.Load()
		w.reads += s.Reads.Load()
		w.bytesSent += s.BytesSent.Load()
		w.bytesRecv += s.BytesRecv.Load()
	}
	return w
}

// proc is a snapshot of process-wide costs.
type proc struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	heap    uint64 // cumulative bytes allocated
	gcs     uint32
	sched   *metrics.Float64Histogram
	// steal and ticks are the host's /proc/stat CPU ticks stolen from
	// this guest and accounted in all (see hostCPU).
	steal, ticks int64
}

const schedMetric = "/sched/latencies:seconds"

func readProc() proc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(sample)
	var sched *metrics.Float64Histogram
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		sched = sample[0].Value.Float64Histogram()
	}
	steal, ticks := hostCPU()
	return proc{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs, heap: ms.TotalAlloc, gcs: ms.NumGC,
		sched: sched,
		steal: steal, ticks: ticks,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the host CPU time, in clock ticks, that the
// hypervisor gave to other guests while this one wanted to run (steal),
// and the total ticks accounted, from /proc/stat; zeros if unreadable.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

// schedQuantile returns the q-quantile, in µs, of the scheduling
// latencies recorded between two snapshots: the upper edge of the
// bucket the quantile falls in.
func schedQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
