// Command orbbench is zcorba's end-to-end benchmark. It drives the ORB
// through its public API from one process over loopback, on one of
// three workloads, and prints each metric by name and unit; the last
// line of its output is one JSON result. See README.md for the
// workloads, the metrics and how each layer maps to the end-to-end
// figures.
//
//	orbbench --workload rpc_small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the run is split: an untraced half gives
// the counters, and a half with a tracer on every ORB gives span self
// times; the result carries the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zcorba/internal/trace"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// nproc bounds the caller goroutines of a workload.
	nproc int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median.
	setups int
	// runDir holds the shm:// socket files; spanDir receives the span
	// logs of a traced run (empty: none are written).
	runDir, spanDir string
	// farm is transcode_farm's seeded frame set.
	farm *farmInput
}

// workload sets up one of the benchmark's workloads. prepare, if set,
// makes the workload's seeded inputs before set-up is timed.
type workload struct {
	prepare func(*config) error
	build   func(cfg *config, traced bool) (world, error)
}

var workloads = map[string]workload{
	"rpc_small":      {build: buildRPC},
	"bulk_planes":    {build: buildBulk},
	"transcode_farm": {prepare: prepareFarm, build: buildFarm},
}

// result is the benchmark's verdict: the JSON object on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{nproc: runtime.NumCPU(), setups: 81,
		runDir: filepath.Join(".bench_build", "run"), spanDir: filepath.Join(".bench_build", "spans")}
	flag.StringVar(&cfg.workload, "workload", "", "workload: rpc_small, bulk_planes or transcode_farm")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the op, plane and size schedule and the payload stamps")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = *traced == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: orbbench --workload rpc_small|bulk_planes|transcode_farm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up, measures and checks one workload, printing the
// human-readable report to out, and returns the result.
func run(cfg *config, out io.Writer) (*result, error) {
	wl := workloads[cfg.workload]
	fmt.Fprintf(out, "# host: %s\n", hostStamp(cfg.seed))
	fmt.Fprintf(out, "# workload %s, seed %d, %gs, trace %v, %d caller CPUs\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc)
	if wl.prepare != nil {
		if err := wl.prepare(cfg); err != nil {
			return nil, fmt.Errorf("inputs: %w", err)
		}
	}

	setups := 1
	if !cfg.trace {
		setups = max(1, cfg.setups)
	}
	var w world
	var setupTimes, setupSteal []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		st0, tk0 := hostCPU()
		t0 := time.Now()
		var err error
		if w, err = wl.build(cfg, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		st1, tk1 := hostCPU()
		setupSteal = append(setupSteal, ratio(st1-st0, tk1-tk0))
	}
	if len(setupTimes) > 1 {
		fmt.Fprintf(out, "# set-up: %d times, median %.4fs, calm median %.4fs, min %.4fs, max %.4fs\n", len(setupTimes),
			median(setupTimes), calmMedian(setupTimes, setupSteal), slices.Min(setupTimes), slices.Max(setupTimes))
	}
	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		length /= 2
	}
	u := measure(w, length, nil)
	problems := verify(w, u)
	own := w.layers(nil)
	w.close()

	res := &result{Attempted: u.log.attempted, Failed: u.log.failed, Metrics: map[string]metric{}}
	var values map[string]float64
	var defs []metricDef
	if !cfg.trace {
		values, defs = endToEndMetrics(u, setupTimes, setupSteal), endToEnd
		printPhase(out, "untraced", w, u)
	} else {
		tw, err := wl.build(cfg, true)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		t, spans, err := measureTraced(tw, length)
		if err == nil {
			problems = append(problems, verify(tw, t)...)
			for k, v := range tw.layers(t.log) {
				own[k] = v
			}
			err = writeSpans(cfg, tw)
		}
		tw.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += t.log.attempted
		res.Failed += t.log.failed
		agg := analyze(spans)
		values, defs = layerMetrics(u, t, agg, own), perLayer
		printPhase(out, "untraced", w, u)
		printPhase(out, "traced", tw, t)
		printSplit(out, agg)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "%-40s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(out, "%-40s %14.4f ratio (failed %d of %d calls)\n", "error_rate",
		ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	for _, p := range problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// control is what a phase shares with the world's callers: the stop
// flag and the index of the current measurement window.
type control struct {
	stop atomic.Bool
	win  atomic.Int32
}

// maxWindow is the length of a measurement window. The end-to-end
// rates and latencies are medians over the windows of a run, so a
// burst of interference that spoils a few windows does not move them.
const maxWindow = 500 * time.Millisecond

// measure runs w's callers for d, or until over reports true, and
// returns what the phase produced.
func measure(w world, d time.Duration, over func() bool) *phase {
	b := w.base()
	c0, e0, w0 := b.counters(), engineCounters(b), readWire(b.wire)
	var ctl control
	done := make(chan struct{})
	var wg sync.WaitGroup
	p := &phase{p0: readProc()}
	p.samples = []sample{{at: p.p0.at, cpu: p.p0.cpu, steal: p.p0.steal, ticks: p.p0.ticks}}
	window := min(maxWindow, d/4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				if now.Sub(p.samples[len(p.samples)-1].at) >= window {
					st, tk := hostCPU()
					p.samples = append(p.samples, sample{at: now, cpu: cpuTime(), steal: st, ticks: tk})
					ctl.win.Add(1)
				}
				if now.Sub(p.p0.at) >= d || (over != nil && over()) {
					ctl.stop.Store(true)
					return
				}
			}
		}
	}()
	p.log = merge(w.run(&ctl))
	p.p1 = readProc()
	close(done)
	wg.Wait()
	p.elapsed = p.p1.at.Sub(p.p0.at)
	p.c = b.counters().add(c0, -1)
	p.engine = engineCounters(b).add(e0, -1)
	w1 := readWire(b.wire)
	p.wire = wire{w1.writes - w0.writes, w1.reads - w0.reads, w1.bytesSent - w0.bytesSent, w1.bytesRecv - w0.bytesRecv}
	return p
}

// measureTraced runs the traced phase: the tracers are cleared of the
// set-up's spans, and the phase ends early once any slab is three
// quarters full.
func measureTraced(w world, d time.Duration) (*phase, []tagged, error) {
	ms := w.base().tracers()
	for _, m := range ms {
		m.tracer.Reset()
	}
	over := func() bool {
		for _, m := range ms {
			if m.tracer.TotalSpans() >= slabSpans*3/4 {
				return true
			}
		}
		return false
	}
	p := measure(w, d, over)
	spans, err := collectSpans(w.base())
	return p, spans, err
}

func engineCounters(b *base) counters {
	var c counters
	for _, m := range b.members {
		if m.tier == "engine" {
			c = c.add(readCounters(m.orb), 1)
		}
	}
	return c
}

// verify checks a phase's correctness: the fast-path invariants and
// the workload's own checks. It returns one message per problem.
func verify(w world, p *phase) []string {
	var out []string
	for _, err := range []error{w.base().invariants(), w.check()} {
		if err != nil {
			out = append(out, err.Error())
		}
	}
	if p.log.failed != 0 {
		out = append(out, fmt.Sprintf("%d of %d calls failed: %s", p.log.failed, p.log.attempted,
			strings.Join(p.log.errs, "; ")))
	}
	if p.log.calls == 0 {
		out = append(out, "no call completed")
	}
	return out
}

// writeSpans writes each tracer's spans to its own span log.
func writeSpans(cfg *config, w world) error {
	if cfg.spanDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return fmt.Errorf("span logs: %w", err)
	}
	for _, m := range w.base().tracers() {
		path := filepath.Join(cfg.spanDir, cfg.workload+"-"+m.name+".ndjson")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("span log: %w", err)
		}
		werr := trace.WriteSpanLog(f, m.tracer.Spans())
		if err := errors.Join(werr, f.Close()); err != nil {
			return fmt.Errorf("span log %s: %w", path, err)
		}
	}
	return nil
}

// printPhase prints a phase's per-class latencies.
func printPhase(out io.Writer, name string, w world, p *phase) {
	fmt.Fprintf(out, "# %s phase: %d calls in %.3fs, %d windows, host steal %.1f%%\n",
		name, p.log.calls, p.elapsed.Seconds(), len(p.samples)-1, 100*p.steal())
	for c, h := range p.log.classes {
		fmt.Fprintf(out, "  %-20s n=%-7d p50=%10.1fus p99=%10.1fus\n", w.classes()[c], h.n,
			h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
	}
}

// printSplit prints every span metric split by op.
func printSplit(out io.Writer, a *layerAgg) {
	var keys []string
	for k := range a.n {
		if strings.Contains(k, "[") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "# span self time by op (mean us, spans)")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-48s %10.2f %8d\n", k, a.mean(k), a.n[k])
	}
}
