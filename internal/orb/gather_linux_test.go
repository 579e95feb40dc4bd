//go:build linux

package orb

import (
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// TestSendBuffersKzcGather sends an 8-segment train through the
// kernel zero-copy plane: one vectored MSG_ZEROCOPY sendmsg covers
// every segment (one transport write), one kernel completion settles
// all eight leases, and each buffer's callback fires when its pages
// are released.
func TestSendBuffersKzcGather(t *testing.T) {
	st := &transport.Stats{}
	p := kzcPair(t, &transport.KZC{Threshold: 4096, Stats: st}, nil)
	cs := p.client.Stats()
	var pl zcbuf.Pool

	// Warm: channel promotion and token registration write on the
	// first call; measure the steady-state second call as deltas.
	warm, _ := gatherBufs(t, &pl, 8, 32<<10)
	if _, _, err := p.ref.Invoke(storeIface.Ops["put8"], toAnys(warm)); err != nil {
		t.Fatalf("warm put8: %v", err)
	}
	releaseBufs(warm)
	kzc0 := cs.KzcDeposits.Load()
	waitKzc(t, "warm completions", func() bool {
		return cs.KzcCompletions.Load() >= kzc0
	})
	before := st.Snapshot()
	comp0, kcomp0 := cs.GatherCompletions.Load(), cs.KzcCompletions.Load()

	bufs, want := gatherBufs(t, &pl, 8, 32<<10)
	defer releaseBufs(bufs)
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
		t.Fatal("checksum mismatch")
	}
	waitKzc(t, "per-buffer completions", func() bool {
		return cs.GatherCompletions.Load() == comp0+8
	})
	for i, e := range log.assertOnce(t, 8) {
		if e != nil {
			t.Fatalf("buffer %d completion error: %v", i, e)
		}
	}
	if got := cs.KzcDeposits.Load() - kzc0; got != 8 {
		t.Fatalf("KzcDeposits per train = %d, want 8", got)
	}
	waitKzc(t, "kzc completions", func() bool {
		return cs.KzcCompletions.Load() == kcomp0+8
	})
	if got := cs.GatherDeposits.Load(); got != 2 {
		t.Fatalf("GatherDeposits = %d, want 2", got)
	}
	if got := cs.GatherSegments.Load(); got != 16 {
		t.Fatalf("GatherSegments = %d, want 16", got)
	}
	// The whole train rode one vectored zero-copy send on the data
	// plane (the kzc transport counts one write per gather call).
	if got := st.Snapshot().Writes - before.Writes; got != 1 {
		t.Fatalf("data-plane writes per train = %d, want 1", got)
	}
	waitKzc(t, "lease settlement", func() bool {
		return p.client.leases.Pending() == 0
	})
	if got := p.server.Stats().GatherScatters.Load(); got != 2 {
		t.Fatalf("server GatherScatters = %d, want 2", got)
	}
}

// toAnys widens a buffer list into an Invoke argument list.
func toAnys(bufs []*zcbuf.Buffer) []any {
	out := make([]any, len(bufs))
	for i, b := range bufs {
		out[i] = b
	}
	return out
}

// TestSendBuffersShmGather sends a 4-segment train through the
// shared-memory ring: one ring reservation publishes all four records
// (one transport write), the server claims each record zero-copy, and
// no payload byte is copied on either side.
func TestSendBuffersShmGather(t *testing.T) {
	p := shmPair(t, "shm-test-host")
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 64<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch")
	}
	for i, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("buffer %d completion error: %v", i, e)
		}
	}
	cs := p.client.Stats()
	if got := cs.ShmDeposits.Load(); got != 1 {
		t.Fatalf("ShmDeposits = %d trains, want 1", got)
	}
	if got := cs.GatherDeposits.Load(); got != 1 {
		t.Fatalf("GatherDeposits = %d, want 1", got)
	}
	if got := cs.GatherSegments.Load(); got != 2 {
		t.Fatalf("GatherSegments = %d, want 2", got)
	}
	ss := p.server.Stats()
	if got := ss.ShmClaims.Load(); got != 2 {
		t.Fatalf("server ShmClaims = %d, want 2", got)
	}
	if got := ss.GatherScatters.Load(); got != 1 {
		t.Fatalf("server GatherScatters = %d, want 1", got)
	}
	if n := ss.PayloadCopyBytes.Load() + cs.PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("%d payload bytes copied on the shm gather path", n)
	}
}

// TestSendBuffersShmPeerKillPartialReservation kills the ring on the
// train's deposit write: the reservation fails, the data channel is
// retired, the call completes on the marshaled fallback, and no lease
// or callback is leaked.
func TestSendBuffersShmPeerKillPartialReservation(t *testing.T) {
	// ClassShm write 1 is the ZCDC promotion preamble; write 2 is the
	// train's ring reservation.
	inj := transport.NewFaultInjector(17).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultPeerKill, Nth: 2,
	})
	server, err := New(Options{
		ZeroCopy:       true,
		DataListenAddr: "shm://" + t.TempDir() + "/data.sock",
		HostID:         "shm-test-host",
	})
	if err != nil {
		t.Fatalf("server ORB: %v", err)
	}
	t.Cleanup(server.Shutdown)
	sv := newStoreServant()
	ref, err := server.Activate("store", sv)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	client, err := New(Options{
		ZeroCopy:      true,
		HostID:        "shm-test-host",
		DataTransport: &transport.SHM{Faults: inj},
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := cref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil {
		t.Fatalf("Wait after ring peer-kill: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after fallback")
	}
	for i, e := range log.assertOnce(t, 8) {
		if e != nil {
			t.Fatalf("buffer %d completion error after successful fallback: %v", i, e)
		}
	}
	if got := client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("DataChanFallbacks = %d, want >= 1", got)
	}
	if n := client.leases.Pending(); n != 0 {
		t.Fatalf("client deposit leases outstanding: %d", n)
	}
	if n := server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
}

// TestSendBuffersWriteGuardKzc: the reuse-guard table on the kernel
// zero-copy plane (the vectored MSG_ZEROCOPY send is stalled).
func TestSendBuffersWriteGuardKzc(t *testing.T) {
	testWriteGuard(t, func(t *testing.T) *pair {
		inj := transport.NewFaultInjector(22).Add(transport.Rule{
			Op: transport.OpWrite, Class: transport.ClassKzc,
			Kind: transport.FaultStall, Nth: 1, Delay: 400 * time.Millisecond,
		})
		return kzcPair(t, &transport.KZC{Threshold: 4096, Faults: inj}, func(o *Options) {
			o.CallTimeout = 5 * time.Second
			o.DebugReuseGuard = true
		})
	})
}

// TestSendBuffersWriteGuardShm: the reuse-guard table on the
// shared-memory plane (the ring reservation is stalled).
func TestSendBuffersWriteGuardShm(t *testing.T) {
	testWriteGuard(t, func(t *testing.T) *pair {
		inj := transport.NewFaultInjector(23).Add(transport.Rule{
			Op: transport.OpWrite, Class: transport.ClassShm,
			Kind: transport.FaultStall, Nth: 2, Delay: 400 * time.Millisecond,
		})
		return newPair(t,
			Options{
				ZeroCopy:       true,
				DataListenAddr: "shm://" + t.TempDir() + "/data.sock",
				HostID:         "shm-test-host",
			},
			Options{
				ZeroCopy:        true,
				HostID:          "shm-test-host",
				DataTransport:   &transport.SHM{Faults: inj},
				CallTimeout:     5 * time.Second,
				DebugReuseGuard: true,
			})
	})
}
