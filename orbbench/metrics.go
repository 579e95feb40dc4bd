package main

import (
	"slices"
	"time"
)

// metricDef names a reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json, which must name the
// same metrics with the same units (orbbench_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics. error_rate, the share of
// calls that failed, is the result line's failed/attempted rather than
// a metric: it must read 0, and a metric is compared as a share of its
// median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"calls_per_s", "1/s"},
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"goodput_MBps", "MB/s"},
	{"cpu_us_per_call", "us"},
	{"allocs_per_call", "count"},
	{"peak_rss_MB", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer reports it as 0.
var perLayer = []metricDef{
	{"orb.marshal_us", "us"},
	{"orb.control_send_us", "us"},
	{"orb.reply_wait_us", "us"},
	{"orb.reply_unmarshal_us", "us"},
	{"orb.handoff_us", "us"},
	{"orb.server.unmarshal_us", "us"},
	{"orb.server.dispatch_us", "us"},
	{"orb.server.reply_send_us", "us"},
	{"orb.server.legacy.call_p50_us", "us"},
	{"orb.server.engine.call_p50_us", "us"},
	{"orb.engine.wakeups_per_call", "count"},
	{"orb.payload_copy_bytes_per_call", "B"},
	{"orb.deposits_per_call", "count"},
	{"orb.fallbacks_per_kcall", "count"},
	{"orb.retries_per_kcall", "count"},
	{"orb.body_reuse_ratio", "ratio"},
	{"transport.writes_per_call", "count"},
	{"transport.reads_per_call", "count"},
	{"transport.wire_overhead_bytes_per_call", "B"},
	{"transport.tcp.deposit_send_us", "us"},
	{"transport.tcp.deposit_recv_us", "us"},
	{"shmem.deposit_us", "us"},
	{"shmem.claim_us", "us"},
	{"shmem.claim_ratio", "ratio"},
	{"kzc.deposit_us", "us"},
	{"kzc.copied_completion_ratio", "ratio"},
	{"kzc.completions_per_deposit", "count"},
	{"plane.tcp.goodput_MBps", "MB/s"},
	{"plane.shm.goodput_MBps", "MB/s"},
	{"plane.kzc.goodput_MBps", "MB/s"},
	{"plane.marshaled.goodput_MBps", "MB/s"},
	{"cdr.marshal_ns_per_KiB", "ns/KiB"},
	{"cdr.unmarshal_ns_per_KiB", "ns/KiB"},
	{"zcbuf.pool_get_ns", "ns"},
	{"zcbuf.lease_expiries", "count"},
	{"framework.frame_p50_ms", "ms"},
	{"framework.worker_imbalance", "ratio"},
	{"framework.encode_busy_ms", "ms"},
	{"orb.gather_send_us", "us"},
	{"orb.gather_segments_per_train", "count"},
	{"mpeg.encode_ms_per_frame", "ms"},
	{"naming.resolve_us", "us"},
	{"runtime.sched_latency_p50_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.gc_cycles_per_kcall", "count"},
	{"runtime.heap_bytes_per_call", "B"},
	{"trace.overhead_pct", "%"},
}

// phase is what one measured phase of a world produced.
type phase struct {
	log     *callLog
	elapsed time.Duration
	p0, p1  proc
	// samples are the window boundaries: window k runs from sample k
	// to sample k+1. Calls that finish after the last boundary count in
	// the totals but in no window.
	samples []sample
	c       counters // ORB counters over the phase
	engine  counters // the engine tier's share of c
	wire    wire
}

type sample struct {
	at           time.Time
	cpu          time.Duration
	steal, ticks int64
}

func (p *phase) calls() float64 { return float64(p.log.calls) }

func (p *phase) callsPerSec() float64 { return p.calls() / p.elapsed.Seconds() }

// steal is the share of the host's CPU time that the hypervisor gave
// to other guests while this one wanted to run, over the phase. It is
// printed beside every phase: the calm-window median discounts
// steal that comes and goes within a run, but not steal that lasts the
// whole run, and such a run should be run again before it is compared.
func (p *phase) steal() float64 { return ratio(p.p1.steal-p.p0.steal, p.p1.ticks-p.p0.ticks) }

// calmWindows returns the phase's windows that logged calls and were
// calm (see calm).
func (p *phase) calmWindows() []int {
	var full []int
	var steal []float64
	for k := 0; k < min(len(p.samples)-1, len(p.log.windows)); k++ {
		if a, b := p.samples[k], p.samples[k+1]; p.log.windows[k].n > 0 {
			full = append(full, k)
			steal = append(steal, ratio(b.steal-a.steal, b.ticks-a.ticks))
		}
	}
	var out []int
	for _, i := range calm(steal) {
		out = append(out, full[i])
	}
	return out
}

// windowMedian returns the median of f(seconds, latencies, payload
// bytes, CPU time) over the phase's calm windows, or f over the whole
// phase when it had no full window.
func (p *phase) windowMedian(f func(secs float64, h *hist, bytes int64, cpu time.Duration) float64) float64 {
	var v []float64
	for _, k := range p.calmWindows() {
		a, b := p.samples[k], p.samples[k+1]
		v = append(v, f(b.at.Sub(a.at).Seconds(), p.log.windows[k], p.log.winBytes[k], b.cpu-a.cpu))
	}
	if len(v) == 0 {
		return f(p.elapsed.Seconds(), p.log.all(), p.log.bytes, p.p1.cpu-p.p0.cpu)
	}
	return median(v)
}

// calmQuantile returns the q-quantile of the latencies of the calls
// that finished in the phase's calm windows, or of all its calls when
// it had no full window. Pooling the windows' calls makes a tail
// quantile steadier than a median of per-window tails: a 0.5 s window
// of bulk_planes holds only a few calls above its p99.
func (p *phase) calmQuantile(q float64) float64 {
	ks := p.calmWindows()
	if len(ks) == 0 {
		return p.log.all().quantile(q)
	}
	h := new(hist)
	for _, k := range ks {
		h.merge(p.log.windows[k])
	}
	return h.quantile(q)
}

// calm returns the indices k of the measurements during which the
// hypervisor stole no more CPU from this guest (steal[k], a share of
// the host's ticks) than during the lower-quartile measurement: time
// stolen by other guests slows every layer at once and measures the
// neighbours, not the ORB. On a quiet host every measurement is calm.
func calm(steal []float64) []int {
	if len(steal) == 0 {
		return nil
	}
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	var out []int
	for k, s := range steal {
		if s <= sorted[(len(sorted)-1)/4] {
			out = append(out, k)
		}
	}
	return out
}

// calmMedian returns the median of the values v[k] whose measurement
// was calm (see calm).
func calmMedian(v, steal []float64) float64 {
	var keep []float64
	for _, k := range calm(steal) {
		keep = append(keep, v[k])
	}
	return median(keep)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndMetrics computes the untraced run's metrics. Rates and CPU
// are medians over the run's calm windows, latency percentiles are
// taken over the calls of those windows, set-up time is the median of
// the calm set-ups, and allocations are counted over the whole run.
func endToEndMetrics(p *phase, setups, setupSteal []float64) map[string]float64 {
	return map[string]float64{
		"setup_s": calmMedian(setups, setupSteal),
		"calls_per_s": p.windowMedian(func(s float64, h *hist, _ int64, _ time.Duration) float64 {
			return float64(h.n) / s
		}),
		"call_p50_us": p.calmQuantile(0.50) / 1e3,
		"call_p99_us": p.calmQuantile(0.99) / 1e3,
		"goodput_MBps": p.windowMedian(func(s float64, _ *hist, b int64, _ time.Duration) float64 {
			return float64(b) / s / 1e6
		}),
		"cpu_us_per_call": p.windowMedian(func(_ float64, h *hist, _ int64, cpu time.Duration) float64 {
			return float64(cpu) / 1e3 / float64(h.n)
		}),
		"allocs_per_call": float64(p.p1.mallocs-p.p0.mallocs) / p.calls(),
		"peak_rss_MB":     peakRSSMB(),
	}
}

// layerMetrics computes the per-layer metrics: counters and runtime
// figures from the untraced phase u, span self times from the traced
// phase t, and the workload's own figures.
func layerMetrics(u, t *phase, a *layerAgg, own map[string]float64) map[string]float64 {
	c, n := u.c, int64(u.calls())
	perCall := func(x int64) float64 { return ratio(x, n) }
	m := map[string]float64{
		"orb.engine.wakeups_per_call":            ratio(u.engine.engineWakeups, u.engine.requestsServed),
		"orb.payload_copy_bytes_per_call":        perCall(c.payloadCopyBytes),
		"orb.deposits_per_call":                  perCall(c.depositsSent),
		"orb.fallbacks_per_kcall":                1e3 * perCall(c.zcFallbacks+c.dataChanFallbacks+c.kzcFallbacks),
		"orb.retries_per_kcall":                  1e3 * perCall(c.retries),
		"orb.body_reuse_ratio":                   ratio(c.bodyReuses, c.bodyAllocs+c.bodyReuses),
		"transport.writes_per_call":              perCall(u.wire.writes),
		"transport.reads_per_call":               perCall(u.wire.reads),
		"transport.wire_overhead_bytes_per_call": perCall(u.wire.bytesSent - u.log.bytes),
		"shmem.claim_ratio":                      ratio(c.shmClaims, c.shmDeposits),
		"kzc.copied_completion_ratio":            ratio(c.kzcCopiedCompletions, c.kzcCompletions),
		"kzc.completions_per_deposit":            ratio(c.kzcCompletions, c.kzcDeposits),
		"zcbuf.pool_get_ns":                      ratio(u.log.poolNS, u.log.poolOps),
		"zcbuf.lease_expiries":                   float64(c.leaseExpiries),
		"orb.gather_segments_per_train":          ratio(c.gatherSegments, c.gatherDeposits),
		"runtime.sched_latency_p50_us":           schedQuantile(u.p0.sched, u.p1.sched, 0.50),
		"runtime.sched_latency_p99_us":           schedQuantile(u.p0.sched, u.p1.sched, 0.99),
		"runtime.gc_cycles_per_kcall":            1e3 * perCall(int64(u.p1.gcs-u.p0.gcs)),
		"runtime.heap_bytes_per_call":            perCall(int64(u.p1.heap - u.p0.heap)),
		"trace.overhead_pct":                     100 * (u.callsPerSec() - t.callsPerSec()) / u.callsPerSec(),
	}
	// A plane's goodput is its payload bytes per second of its calls, so
	// it moves only when that plane's calls get faster.
	for p, name := range planeNames {
		m["plane."+name+".goodput_MBps"] = 1e3 * ratio(u.log.planeBytes[p], u.log.planeNS[p])
	}
	for _, name := range []string{
		"orb.marshal_us", "orb.control_send_us", "orb.reply_wait_us", "orb.reply_unmarshal_us",
		"orb.handoff_us", "orb.server.unmarshal_us", "orb.server.dispatch_us", "orb.server.reply_send_us",
		"transport.tcp.deposit_send_us", "transport.tcp.deposit_recv_us", "shmem.deposit_us",
		"shmem.claim_us", "kzc.deposit_us", "orb.gather_send_us",
	} {
		m[name] = a.mean(name)
	}
	for tier, h := range a.extents {
		m["orb.server."+tier+".call_p50_us"] = h.quantile(0.5) / 1e3
	}
	if a.sum["cdr.marshal_KiB"] > 0 {
		m["cdr.marshal_ns_per_KiB"] = a.sum["cdr.marshal_ns"] / a.sum["cdr.marshal_KiB"]
	}
	if a.sum["cdr.unmarshal_KiB"] > 0 {
		m["cdr.unmarshal_ns_per_KiB"] = a.sum["cdr.unmarshal_ns"] / a.sum["cdr.unmarshal_KiB"]
	}
	m["framework.encode_busy_ms"] = a.mean("orb.server.dispatch_us[encode_zc]") / 1e3
	for k, v := range own {
		m[k] = v
	}
	return m
}
