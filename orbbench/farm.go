package main

import (
	"bytes"
	"fmt"
	"time"

	"zcorba/internal/framework"
	"zcorba/internal/media"
	"zcorba/internal/mpeg"
	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/trace"
)

// transcode_farm: the paper's §5.4 application. A naming service, two
// encoder workers and a master farm found through naming, over tcp://
// with gathered deposits. The master encodes a fixed set of 480x272
// frames round after round; one call is one frame.

const (
	farmWidth, farmHeight = 480, 272
	farmWorkers           = 2
	farmFrames            = 32 // frames per Transcode round
	farmQuality           = 8
	// Per-layer timings of the traced phase: direct codec passes over
	// the frame set and naming resolves.
	farmCodecPasses = 2
	farmResolves    = 200
)

type farmWorld struct {
	b      base
	master *orb.ORB
	nc     *naming.Client
	farm   *framework.Farm
	// frameTrace times each frame for the farm's latency figures: the
	// farm's own per-frame span, not ORB tracing.
	frameTrace *trace.Tracer
	frames     []framework.Frame
	expect     [][]byte // the codec's output for each frame
	perWorker  [farmWorkers]int64
}

func buildFarm(cfg *config, traced bool) (world, error) {
	w := &farmWorld{b: base{cfg: cfg, traced: traced}}
	fail := func(err error) (world, error) {
		w.close()
		return nil, err
	}
	ns, err := w.b.start(member{name: "naming", server: true, tier: "legacy", plane: "tcp"}, orb.Options{})
	if err != nil {
		return fail(err)
	}
	nsIOR, err := naming.Serve(ns)
	if err != nil {
		return fail(fmt.Errorf("serve naming: %w", err))
	}
	for i := 0; i < farmWorkers; i++ {
		o, err := w.b.start(member{name: fmt.Sprintf("worker.%d", i), server: true, tier: "legacy", plane: "tcp"}, orb.Options{})
		if err != nil {
			return fail(err)
		}
		nc, err := naming.Connect(o, nsIOR)
		if err != nil {
			return fail(fmt.Errorf("worker %d naming: %w", i, err))
		}
		if err := framework.StartWorker(o, nc, fmt.Sprintf("enc-%d", i), farmQuality); err != nil {
			return fail(err)
		}
	}
	if w.master, err = w.b.start(member{name: "master", plane: "tcp"}, orb.Options{}); err != nil {
		return fail(err)
	}
	if w.nc, err = naming.Connect(w.master, nsIOR); err != nil {
		return fail(fmt.Errorf("master naming: %w", err))
	}
	if w.farm, err = framework.Discover(w.master, w.nc); err != nil {
		return fail(err)
	}
	if w.farm.Size() != farmWorkers {
		return fail(fmt.Errorf("discovered %d workers, want %d", w.farm.Size(), farmWorkers))
	}
	w.farm.Gather = true
	w.frameTrace = trace.New(farmFrames)
	w.farm.Tracer = w.frameTrace
	if err := w.loadFrames(); err != nil {
		return fail(err)
	}
	// Warm-up: one round, which also checks the farm's output.
	log := &callLog{}
	if err := w.round(log); err != nil {
		return fail(fmt.Errorf("warm-up round: %w", err))
	}
	if log.failed != 0 {
		return fail(fmt.Errorf("warm-up round: %d of %d frames failed: %v", log.failed, log.attempted, log.errs))
	}
	w.perWorker = [farmWorkers]int64{}
	return w, nil
}

// farmInput is the seeded frame set: raw frames decoded from the
// MPEG-2 source with every page stamped (seed, frame, page), and the
// codec's output for each, encoded directly.
type farmInput struct {
	infos  []media.Media_FrameInfo
	raw    [][]byte
	expect [][]byte
}

// prepareFarm makes the frame set before set-up is timed.
func prepareFarm(cfg *config) error {
	src, err := framework.SourceFrames(mpeg.NewMPEG2Source(farmWidth, farmHeight), farmFrames)
	if err != nil {
		return err
	}
	in := &farmInput{}
	enc := mpeg.Encoder{Quality: farmQuality}
	for i, f := range src {
		raw := bytes.Clone(f.Data.Bytes())
		f.Data.Release()
		stamp(raw, cfg.seed, uint64(i))
		want, err := enc.Encode(raw, farmWidth, farmHeight)
		if err != nil {
			return fmt.Errorf("encode frame %d: %w", i, err)
		}
		in.infos = append(in.infos, f.Info)
		in.raw = append(in.raw, raw)
		in.expect = append(in.expect, want)
	}
	cfg.farm = in
	return nil
}

// loadFrames copies the frame set into page-aligned buffers of the
// master's pool.
func (w *farmWorld) loadFrames() error {
	in := w.b.cfg.farm
	for i, raw := range in.raw {
		buf, err := w.master.Pool().Get(len(raw))
		if err != nil {
			return err
		}
		copy(buf.Bytes(), raw)
		w.frames = append(w.frames, framework.Frame{Info: in.infos[i], Data: buf})
	}
	w.expect = in.expect
	return nil
}

// round pushes the frame set through the farm once and logs one call
// per frame; a frame counts as done only if its output matches the
// direct encoding. The error is for a round that could not be run.
func (w *farmWorld) round(log *callLog) error {
	for _, f := range w.frames {
		f.Data.Retain() // the farm releases one reference per frame
	}
	w.frameTrace.Reset()
	results, _, err := w.farm.Transcode(w.frames)
	if len(results) != len(w.frames) {
		return fmt.Errorf("transcode returned %d results for %d frames: %v", len(results), len(w.frames), err)
	}
	// The farm times each frame from submission to result; which frame
	// a time belongs to does not matter, as all frames are one class.
	spans := w.frameTrace.Spans()
	for i, r := range results {
		ferr := r.Err
		if ferr == nil && !bytes.Equal(r.Data.Bytes(), w.expect[i]) {
			ferr = fmt.Errorf("frame %d: worker %d returned %d bytes that differ from the direct encoding",
				i, r.Worker, r.Data.Len())
		}
		var d int64
		if i < len(spans) {
			d = spans[i].Dur
		}
		var out int64
		if r.Data != nil {
			out = int64(r.Data.Len())
			r.Data.Release()
		}
		if ferr == nil {
			w.perWorker[r.Worker]++
		}
		log.done(0, time.Duration(d), planeTCP, int64(w.frames[i].Data.Len())+out, ferr)
	}
	return nil
}

func (w *farmWorld) base() *base { return &w.b }

func (w *farmWorld) classes() []string { return []string{"frame"} }

// run is one caller: the master, driving the farm round after round.
// Within a round the farm keeps two frames in flight per worker.
func (w *farmWorld) run(ctl *control) []*callLog {
	return runCallers(1, ctl, func(_ int, log *callLog) {
		for !ctl.stop.Load() {
			if err := w.round(log); err != nil {
				log.done(0, 0, planeTCP, 0, err)
				return
			}
		}
	})
}

func (w *farmWorld) check() error { return nil }

// layers reports the farm's worker balance and, after the traced phase,
// its frame latency and the codec and naming costs timed directly.
func (w *farmWorld) layers(traced *callLog) map[string]float64 {
	lo, hi := w.perWorker[0], w.perWorker[0]
	for _, n := range w.perWorker {
		lo, hi = min(lo, n), max(hi, n)
	}
	out := map[string]float64{"framework.worker_imbalance": float64(hi) / float64(max(lo, 1))}
	if traced == nil {
		return out
	}
	out["framework.frame_p50_ms"] = traced.all().quantile(0.5) / 1e6
	enc := mpeg.Encoder{Quality: farmQuality}
	var codec time.Duration
	for p := 0; p < farmCodecPasses; p++ {
		for _, f := range w.frames {
			t0 := time.Now()
			_, err := enc.Encode(f.Data.Bytes(), farmWidth, farmHeight)
			codec += time.Since(t0)
			if err != nil {
				return out
			}
		}
	}
	out["mpeg.encode_ms_per_frame"] = codec.Seconds() * 1e3 / float64(farmCodecPasses*len(w.frames))
	var resolve time.Duration
	for i := 0; i < farmResolves; i++ {
		t0 := time.Now()
		_, err := w.nc.Resolve(framework.WorkerPrefix + fmt.Sprintf("enc-%d", i%farmWorkers))
		resolve += time.Since(t0)
		if err != nil {
			return out
		}
	}
	out["naming.resolve_us"] = resolve.Seconds() * 1e6 / farmResolves
	return out
}

func (w *farmWorld) close() {
	for _, f := range w.frames {
		f.Data.Release()
	}
	w.frames = nil
	w.b.close()
}
