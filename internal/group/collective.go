package group

import (
	"context"
	"fmt"
	"sync"

	"zcorba/internal/orb"
	"zcorba/internal/zcbuf"
)

// Result is one member's outcome of a collective call. Member is the
// member's index in Members() order.
type Result struct {
	Member int
	Value  any
	Outs   []any
	Err    error
}

// FirstError returns the first member error, if any.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("group: member %d: %w", r.Member, r.Err)
		}
	}
	return nil
}

// invokeAll runs fn concurrently for every member and collects the
// results in member order. Collective calls go straight to each
// member's reference: the balancing policy and the health gate play
// no part, and a failed member is never re-run on another one.
func (b *Balancer) invokeAll(fn func(i int, ref *orb.ObjectRef) (any, []any, error)) []Result {
	results := make([]Result, len(b.members))
	var wg sync.WaitGroup
	for i, m := range b.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outs, err := fn(i, m.ref)
			results[i] = Result{Member: i, Value: v, Outs: outs, Err: err}
		}()
	}
	wg.Wait()
	return results
}

// Broadcast invokes op with identical arguments on every member.
// Cancelling ctx abandons every member invocation still in flight.
func (b *Balancer) Broadcast(ctx context.Context, op *orb.Operation, args []any) []Result {
	return b.invokeAll(func(_ int, ref *orb.ObjectRef) (any, []any, error) {
		return ref.InvokeCtx(ctx, op, args)
	})
}

// Partitioner selects member i's share of an n-byte payload. The
// returned bounds must tile [0, n) in member order.
type Partitioner func(member, members, n int) (lo, hi int)

// BlockPartition splits a payload into contiguous near-equal blocks,
// the default data distribution of data-parallel CORBA.
func BlockPartition(member, members, n int) (int, int) {
	base := n / members
	rem := n % members
	lo := member*base + min(member, rem)
	size := base
	if member < rem {
		size++
	}
	return lo, lo + size
}

// PageAlignedPartition is BlockPartition rounded to deposit-page
// boundaries, so every member's share stays eligible for page-aligned
// zero-copy handling (the paper's 4 KiB granularity, §5.1).
func PageAlignedPartition(member, members, n int) (int, int) {
	pages := (n + zcbuf.PageSize - 1) / zcbuf.PageSize
	plo, phi := BlockPartition(member, members, pages)
	return min(plo*zcbuf.PageSize, n), min(phi*zcbuf.PageSize, n)
}

// Scatter invokes op on every member, replacing the in-parameter at
// argIndex with that member's partition of data (a sub-slice: no
// copies). The remaining args are broadcast unchanged. A nil part
// selects BlockPartition; a partitioner that does not tile data is
// rejected before any traffic.
func (b *Balancer) Scatter(ctx context.Context, op *orb.Operation, args []any,
	argIndex int, data []byte, part Partitioner) ([]Result, error) {
	if argIndex < 0 || argIndex >= len(op.InParams()) || argIndex >= len(args) {
		return nil, fmt.Errorf("group: scatter arg index %d out of range", argIndex)
	}
	if part == nil {
		part = BlockPartition
	}
	n := len(b.members)
	expect := 0
	for i := range n {
		lo, hi := part(i, n, len(data))
		if lo != expect || hi < lo || hi > len(data) {
			return nil, fmt.Errorf("group: partitioner does not tile: member %d got [%d,%d) after %d",
				i, lo, hi, expect)
		}
		expect = hi
	}
	if expect != len(data) {
		return nil, fmt.Errorf("group: partitioner covers %d of %d bytes", expect, len(data))
	}
	return b.invokeAll(func(i int, ref *orb.ObjectRef) (any, []any, error) {
		lo, hi := part(i, n, len(data))
		myArgs := append([]any(nil), args...)
		myArgs[argIndex] = data[lo:hi:hi]
		return ref.InvokeCtx(ctx, op, myArgs)
	}), nil
}

// GatherBytes concatenates the members' bulk results in member order.
// Results may be *zcbuf.Buffer (released after gathering) or []byte.
func GatherBytes(results []Result) ([]byte, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	total := 0
	parts := make([][]byte, len(results))
	for i, r := range results {
		switch v := r.Value.(type) {
		case *zcbuf.Buffer:
			parts[i] = v.Bytes()
		case []byte:
			parts[i] = v
		case nil:
			return nil, fmt.Errorf("group: member %d returned no value", r.Member)
		default:
			return nil, fmt.Errorf("group: member %d returned %T, not bytes", r.Member, v)
		}
		total += len(parts[i])
	}
	out := make([]byte, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	for _, r := range results {
		if b, ok := r.Value.(*zcbuf.Buffer); ok {
			b.Release()
		}
	}
	return out, nil
}
