package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

func TestStampsCatchCorruptPage(t *testing.T) {
	const seed = 7
	p := make([]byte, 3*pageSize)
	stamp(p, seed, 42)
	if seq, err := checkStamps(p, seed); err != nil || seq != 42 {
		t.Fatalf("clean payload: seq %d, err %v", seq, err)
	}
	for _, c := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"page index", func(b []byte) []byte { b[2*pageSize+16] ^= 1; return b }},
		{"call", func(b []byte) []byte { b[pageSize+8] ^= 0x80; return b }},
		{"seed", func(b []byte) []byte { b[2*pageSize] ^= 4; return b }},
		{"length", func(b []byte) []byte { return b[:2*pageSize] }},
	} {
		q := c.corrupt(slices.Clone(p))
		if _, err := checkStamps(q, seed); err == nil {
			t.Errorf("corrupt %s: check passed", c.name)
		}
	}
	if _, err := checkStamps(p, seed+1); err == nil {
		t.Error("payload of another seed passed")
	}
}

// TestServantRejectsCorruptPayload sends a payload with one corrupt
// page through the ORB on both the zero-copy and the marshaled path and
// expects the benchmark's servant to fail the call.
func TestServantRejectsCorruptPayload(t *testing.T) {
	cfg := testConfig(t, "rpc_small")
	w, err := buildRPC(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rw := w.(*rpcWorld)
	for tier := range rpcTiers {
		buf, err := rw.client.Pool().Get(2 * pageSize)
		if err != nil {
			t.Fatal(err)
		}
		stamp(buf.Bytes(), cfg.seed, 1)
		buf.Bytes()[pageSize+3] ^= 0xff // page 1's stamp
		if _, err := rw.stubs[tier].Zput(buf); err == nil {
			t.Errorf("%s: zput of a corrupt page succeeded", rpcTiers[tier])
		}
		if _, err := rw.stubs[tier].Put(buf.Bytes()); err == nil {
			t.Errorf("%s: put of a corrupt page succeeded", rpcTiers[tier])
		}
		buf.Release()
		if n := rw.stores[tier].bad.Load(); n != 2 {
			t.Errorf("%s: store counted %d bad payloads, want 2", rpcTiers[tier], n)
		}
	}
	if w.check() == nil {
		t.Error("the workload check passed after corrupt payloads")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	draw := func(seed uint64) []uint8 {
		s := newSchedule(seed, 0, bulkMix)
		out := make([]uint8, 3*100)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	// Every block holds the mix exactly.
	for blk := 0; blk < 3; blk++ {
		count := make([]int, len(bulkMix))
		for _, cl := range a[blk*100 : (blk+1)*100] {
			count[cl]++
		}
		if !slices.Equal(count, bulkMix) {
			t.Errorf("block %d: mix %v, want %v", blk, count, bulkMix)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks the result names every metric of
// BENCHMARK.json with its unit, and that the run was correct.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t, wl.Name)
			cfg.trace = traced
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json has %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func testConfig(t *testing.T, name string) *config {
	t.Helper()
	cfg := &config{workload: name, seed: 3, seconds: 0.4, nproc: runtime.NumCPU(), setups: 2, runDir: t.TempDir()}
	if p := workloads[name].prepare; p != nil {
		if err := p(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}
