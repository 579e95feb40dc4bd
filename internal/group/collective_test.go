package group

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"zcorba/internal/ior"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// shard is a collective-call member: stores its partition, serves it
// back.
type shard struct {
	mu   sync.Mutex
	data []byte
}

var shardIface = orb.NewInterface("IDL:test/Shard:1.0", "Shard",
	&orb.Operation{
		Name:   "store",
		Params: []orb.Param{{Name: "part", Type: typecode.TCZCOctetSeq, Dir: orb.In}},
		Result: typecode.TCULong,
	},
	&orb.Operation{
		Name:   "fetch",
		Result: typecode.TCZCOctetSeq,
	},
	&orb.Operation{
		Name:   "clear",
		Result: typecode.TCVoid,
	},
)

func (s *shard) Interface() *orb.Interface { return shardIface }

func (s *shard) Invoke(op string, args []any) (any, []any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "store":
		buf := args[0].(*zcbuf.Buffer)
		s.data = append([]byte(nil), buf.Bytes()...)
		return uint32(len(s.data)), nil, nil
	case "fetch":
		return append([]byte(nil), s.data...), nil, nil
	case "clear":
		s.data = nil
		return nil, nil, nil
	default:
		return nil, nil, &orb.SystemException{Name: "BAD_OPERATION"}
	}
}

// shardGroup builds a zero-copy group of n shard servants, each on its
// own ORB, and a balancer for it on a client ORB with clientOpts (the
// servers always run plain TCP with zero-copy on).
func shardGroup(t *testing.T, n int, clientOpts orb.Options) (*Balancer, []*shard, *orb.ORB) {
	t.Helper()
	client, err := orb.New(clientOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	var ids []string
	var refs []*orb.ObjectRef
	var shards []*shard
	for i := range n {
		server, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(server.Shutdown)
		sh := &shard{}
		ref, err := server.Activate("shard", sh)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, "s-"+strconv.Itoa(i))
		refs = append(refs, ref)
		shards = append(shards, sh)
	}
	gior, err := IORFromMembers("shards", ior.PolicyRoundRobin, ids, refs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBalancer(client, gior)
	if err != nil {
		t.Fatal(err)
	}
	return b, shards, client
}

// zcClient is the default client for the collective tests.
func zcClient() orb.Options { return orb.Options{Transport: &transport.TCP{}, ZeroCopy: true} }

func TestGroupEmptyRejected(t *testing.T) {
	if _, err := IORFromMembers("none", ior.PolicyRoundRobin, nil, nil); err == nil {
		t.Fatal("IORFromMembers accepted an empty group")
	}
	if _, err := NewBalancer(clientORB(t), ior.IOR{}); err == nil {
		t.Fatal("NewBalancer accepted a reference with no profiles")
	}
}

func TestGroupScatterGatherRoundTrip(t *testing.T) {
	b, shards, client := shardGroup(t, 3, zcClient())
	data := make([]byte, 100001) // deliberately not divisible by 3
	for i := range data {
		data[i] = byte(i * 13)
	}
	results, err := b.Scatter(t.Context(), shardIface.Ops["store"], []any{nil}, 0, data, BlockPartition)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	// Every member holds exactly its partition.
	total := 0
	for i, sh := range shards {
		lo, hi := BlockPartition(i, 3, len(data))
		sh.mu.Lock()
		if !bytes.Equal(sh.data, data[lo:hi]) {
			sh.mu.Unlock()
			t.Fatalf("member %d partition mismatch", i)
		}
		total += len(sh.data)
		sh.mu.Unlock()
		if results[i].Value.(uint32) != uint32(hi-lo) {
			t.Fatalf("member %d ack %v", i, results[i].Value)
		}
	}
	if total != len(data) {
		t.Fatalf("shards hold %d of %d bytes", total, len(data))
	}
	// Zero-copy scatter: the client must not have copied payload.
	if n := client.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("scatter copied %d bytes", n)
	}

	// Gather the shards back and compare to the original.
	gathered, err := GatherBytes(b.Broadcast(t.Context(), shardIface.Ops["fetch"], nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered, data) {
		t.Fatal("gather does not reconstruct the scatter")
	}
}

// TestGroupBroadcast: a broadcast reaches every member, bypassing the
// balancing policy (round-robin would send one call to one member).
func TestGroupBroadcast(t *testing.T) {
	b, shards, _ := shardGroup(t, 4, zcClient())
	if _, err := b.Scatter(t.Context(), shardIface.Ops["store"], []any{nil}, 0,
		make([]byte, 4096), nil); err != nil {
		t.Fatal(err)
	}
	results := b.Broadcast(t.Context(), shardIface.Ops["clear"], nil)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results for 4 members", len(results))
	}
	for i, sh := range shards {
		sh.mu.Lock()
		if len(sh.data) != 0 {
			t.Fatalf("member %d not cleared", i)
		}
		sh.mu.Unlock()
		if results[i].Member != i {
			t.Fatalf("result %d reports member %d", i, results[i].Member)
		}
	}
}

func TestGroupScatterBadPartitioner(t *testing.T) {
	b, _, _ := shardGroup(t, 2, zcClient())
	store := shardIface.Ops["store"]
	overlap := func(member, members, n int) (int, int) { return 0, n }
	if _, err := b.Scatter(t.Context(), store, []any{nil}, 0, make([]byte, 100), overlap); err == nil {
		t.Fatal("want tiling error")
	}
	short := func(member, members, n int) (int, int) {
		lo, hi := BlockPartition(member, members, n)
		if member == members-1 {
			hi-- // leaves one byte uncovered
		}
		return lo, hi
	}
	if _, err := b.Scatter(t.Context(), store, []any{nil}, 0, make([]byte, 100), short); err == nil {
		t.Fatal("want coverage error")
	}
	if _, err := b.Scatter(t.Context(), store, []any{nil}, 5, make([]byte, 100), nil); err == nil {
		t.Fatal("want arg-index error")
	}
}

func TestPropertyBlockPartitionTiles(t *testing.T) {
	f := func(rawMembers uint8, rawN uint16) bool {
		members := int(rawMembers%16) + 1
		n := int(rawN)
		expect := 0
		for i := 0; i < members; i++ {
			lo, hi := BlockPartition(i, members, n)
			if lo != expect || hi < lo {
				return false
			}
			expect = hi
		}
		return expect == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPageAlignedPartitionTiles(t *testing.T) {
	f := func(rawMembers uint8, rawN uint32) bool {
		members := int(rawMembers%8) + 1
		n := int(rawN % (64 << 20))
		expect := 0
		for i := 0; i < members; i++ {
			lo, hi := PageAlignedPartition(i, members, n)
			if lo != expect || hi < lo || hi > n {
				return false
			}
			// Every boundary except the last is page aligned.
			if hi != n && hi%zcbuf.PageSize != 0 {
				return false
			}
			expect = hi
		}
		return expect == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherBytesErrors(t *testing.T) {
	if _, err := GatherBytes([]Result{{Member: 0, Err: errTest}}); err == nil {
		t.Fatal("want member error")
	}
	if _, err := GatherBytes([]Result{{Member: 0, Value: 42}}); err == nil {
		t.Fatal("want type error")
	}
	if _, err := GatherBytes([]Result{{Member: 0}}); err == nil {
		t.Fatal("want nil-value error")
	}
	got, err := GatherBytes([]Result{
		{Member: 0, Value: []byte("ab")},
		{Member: 1, Value: zcbuf.Wrap([]byte("cd"))},
	})
	if err != nil || string(got) != "abcd" {
		t.Fatalf("got %q %v", got, err)
	}
}

var errTest = &orb.SystemException{Name: "UNKNOWN"}

// TestGroupScatterChaosDataFault kills a deposit channel mid-scatter:
// the affected member invocation must complete anyway, degraded to the
// marshaled path (or retried), and the shards must still hold the full
// tiling.
func TestGroupScatterChaosDataFault(t *testing.T) {
	inj := transport.NewFaultInjector(77).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassData,
		Kind: transport.FaultReset, Nth: 2,
	})
	b, shards, client := shardGroup(t, 3, orb.Options{
		Transport: &transport.Faulty{Inner: &transport.TCP{}, Inj: inj},
		ZeroCopy:  true,
		Retry: orb.RetryPolicy{MaxAttempts: 4, InitialBackoff: time.Millisecond,
			MaxBackoff: 20 * time.Millisecond},
	})
	data := make([]byte, 96*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	results, err := b.Scatter(t.Context(), shardIface.Ops["store"], []any{nil}, 0, data, BlockPartition)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatalf("scatter did not survive the data fault: %v", err)
	}
	for i, sh := range shards {
		lo, hi := BlockPartition(i, 3, len(data))
		sh.mu.Lock()
		ok := bytes.Equal(sh.data, data[lo:hi])
		sh.mu.Unlock()
		if !ok {
			t.Fatalf("member %d partition mismatch after fault recovery", i)
		}
	}
	if inj.Fired() < 1 {
		t.Fatal("fault never fired; scenario did not exercise recovery")
	}
	recovered := client.Stats().DataChanFallbacks.Load() + client.Stats().Retries.Load()
	if recovered < 1 {
		t.Fatalf("no fallback or retry recorded (fallbacks+retries = %d)", recovered)
	}
}

// TestGroupBroadcastCancelled: a cancelled context abandons every
// member invocation instead of waiting out the call timeout.
func TestGroupBroadcastCancelled(t *testing.T) {
	b, _, _ := shardGroup(t, 3, zcClient())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range b.Broadcast(ctx, shardIface.Ops["fetch"], nil) {
		if r.Err == nil {
			t.Fatalf("member %d completed under a cancelled context", r.Member)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("member %d: %v, want context.Canceled", r.Member, r.Err)
		}
	}
}
