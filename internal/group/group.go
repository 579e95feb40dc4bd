// Package group implements object groups: N servants published under
// one group reference, with client-side load balancing across the
// members and health-gated per-member eviction (docs/NAMING.md).
//
// A group IOR is an ordinary multi-profile IOR where every IIOP
// profile carries a TagZCGroup component naming the group, the member,
// and the balancing policy — so iordump can annotate it, the naming
// tier can bind it like any other reference, and a group-unaware
// client still works (it just talks to the first member, courtesy of
// the ordinary multi-profile failover path). A group-aware client
// builds a Balancer from it and spreads invocations: round-robin by
// default, or least-loaded (fewest in-flight calls) when the group was
// published with ior.PolicyLeastLoaded.
//
// Health gating: a member that fails EvictThreshold consecutive
// invocations with a connection-class exception (COMM_FAILURE or
// TRANSIENT) is evicted for Cooldown; traffic spreads over the
// survivors, and the evicted member is re-probed with live traffic
// after the cooldown. A failed attempt is transparently re-run on the
// next member, so killing a member mid-traffic loses no client call
// (the group_test chaos cases pin this).
//
// Collective calls (collective.go) reach every member at once:
// Broadcast sends the same arguments to all, and Scatter hands each
// member its own partition of a bulk buffer. This is the data-parallel
// CORBA direction of the paper's §1.2 (its reference [14]).
package group

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zcorba/internal/ior"
	"zcorba/internal/orb"
)

// Activate registers the servants on o as one object group and returns
// the group reference. Each member m is activated under the object key
// "<name>/<m>"; the returned IOR lists one profile per member (sorted
// by member ID for a deterministic wire image), each tagged with the
// group component and a default PriorityWeight.
func Activate(o *orb.ORB, name string, policy uint32, members map[string]orb.Servant) (ior.IOR, error) {
	if len(members) == 0 {
		return ior.IOR{}, fmt.Errorf("group: no members for %q", name)
	}
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	refs := make([]*orb.ObjectRef, 0, len(members))
	mids := make([]string, 0, len(members))
	for _, id := range ids {
		ref, err := o.Activate(name+"/"+id, members[id])
		if err != nil {
			return ior.IOR{}, fmt.Errorf("group: activate %s/%s: %w", name, id, err)
		}
		refs = append(refs, ref)
		mids = append(mids, id)
	}
	return IORFromMembers(name, policy, mids, refs)
}

// IORFromMembers builds a group reference from already-activated
// member references (which may live on different ORBs or hosts).
// memberIDs[i] names refs[i]; the first ref's type ID becomes the
// group's.
func IORFromMembers(name string, policy uint32, memberIDs []string, refs []*orb.ObjectRef) (ior.IOR, error) {
	if len(refs) == 0 || len(refs) != len(memberIDs) {
		return ior.IOR{}, fmt.Errorf("group: %d refs for %d member IDs", len(refs), len(memberIDs))
	}
	profs := make([]ior.IIOPProfile, 0, len(refs))
	for i, ref := range refs {
		p, ok := ref.IOR().IIOP()
		if !ok {
			return ior.IOR{}, fmt.Errorf("group: member %q has no IIOP profile", memberIDs[i])
		}
		p.Components = append(p.Components,
			ior.Group{Name: name, Member: memberIDs[i], Policy: policy}.Encode(),
			ior.PriorityWeight{Priority: ior.DefaultPriority, Weight: ior.DefaultWeight}.Encode(),
		)
		profs = append(profs, p)
	}
	return ior.NewMultiIIOP(refs[0].IOR().TypeID, profs...), nil
}

// Defaults for the health gate.
const (
	// DefaultEvictThreshold is the consecutive connection-failure count
	// that evicts a member.
	DefaultEvictThreshold = 3
	// DefaultCooldown is how long an evicted member sits out before
	// live traffic probes it again.
	DefaultCooldown = 5 * time.Second
)

// member is one group member as the balancer sees it.
type member struct {
	id  string
	ref *orb.ObjectRef

	inflight atomic.Int64 // current in-flight invocations (least-loaded)
	served   atomic.Int64 // total successful invocations

	mu       sync.Mutex
	failures int       // consecutive connection-class failures
	until    time.Time // evicted until (zero = healthy)
}

// healthy reports whether the member accepts traffic at now.
func (m *member) healthy(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.until.IsZero() || now.After(m.until)
}

// Balancer spreads invocations over a group's members. Build one with
// NewBalancer; it is safe for concurrent use.
type Balancer struct {
	// EvictThreshold and Cooldown tune the health gate; the zero values
	// select the defaults. Set before the first Invoke.
	EvictThreshold int
	Cooldown       time.Duration

	name    string
	policy  uint32
	members []*member
	rr      atomic.Uint32

	evictions atomic.Int64
}

// NewBalancer builds a balancer from a group reference on o. The
// reference must carry at least one IIOP profile with a group
// component; profiles without one are rejected (a plain multi-profile
// IOR is a failover list, not a group).
func NewBalancer(o *orb.ORB, gior ior.IOR) (*Balancer, error) {
	profs := gior.OrderedIIOPProfiles()
	if len(profs) == 0 {
		return nil, fmt.Errorf("group: reference has no IIOP profiles")
	}
	b := &Balancer{}
	for _, p := range profs {
		g, ok := p.Group()
		if !ok {
			return nil, fmt.Errorf("group: profile %s:%d has no group component", p.Host, p.Port)
		}
		if b.name == "" {
			b.name, b.policy = g.Name, g.Policy
		} else if g.Name != b.name {
			return nil, fmt.Errorf("group: mixed groups %q and %q in one reference", b.name, g.Name)
		}
		single := ior.IOR{TypeID: gior.TypeID, Profiles: []ior.TaggedProfile{p.Encode()}}
		b.members = append(b.members, &member{id: g.Member, ref: o.ObjectFromIOR(single)})
	}
	return b, nil
}

// Name returns the group name.
func (b *Balancer) Name() string { return b.name }

// Policy returns the balancing policy baked into the group reference.
func (b *Balancer) Policy() uint32 { return b.policy }

// Members returns the member IDs in reference order.
func (b *Balancer) Members() []string {
	ids := make([]string, len(b.members))
	for i, m := range b.members {
		ids[i] = m.id
	}
	return ids
}

// Served returns the successful-invocation count of one member
// (zero for unknown IDs).
func (b *Balancer) Served(memberID string) int64 {
	for _, m := range b.members {
		if m.id == memberID {
			return m.served.Load()
		}
	}
	return 0
}

// Evictions returns how many times the health gate evicted a member.
func (b *Balancer) Evictions() int64 { return b.evictions.Load() }

// threshold resolves the effective eviction threshold.
func (b *Balancer) threshold() int {
	if b.EvictThreshold > 0 {
		return b.EvictThreshold
	}
	return DefaultEvictThreshold
}

// cooldown resolves the effective eviction cooldown.
func (b *Balancer) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return DefaultCooldown
}

// pick selects the member for the next invocation, skipping the given
// already-failed members. Healthy members win over evicted ones; among
// healthy members the policy decides; with every member evicted or
// failed the least-recently-evicted one is tried anyway (a full outage
// must degrade to "keep probing", not "fail instantly forever").
func (b *Balancer) pick(failed map[*member]bool) *member {
	now := time.Now()
	var candidates []*member
	for _, m := range b.members {
		if !failed[m] && m.healthy(now) {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		// Everyone is evicted or already failed this call: probe the
		// evicted member whose cooldown expires soonest.
		var best *member
		var bestUntil time.Time
		for _, m := range b.members {
			if failed[m] {
				continue
			}
			m.mu.Lock()
			u := m.until
			m.mu.Unlock()
			if best == nil || u.Before(bestUntil) {
				best, bestUntil = m, u
			}
		}
		return best // nil only when every member failed this call
	}
	switch b.policy {
	case ior.PolicyLeastLoaded:
		best := candidates[0]
		load := best.inflight.Load()
		for _, m := range candidates[1:] {
			if l := m.inflight.Load(); l < load {
				best, load = m, l
			}
		}
		return best
	default: // round-robin
		return candidates[int(b.rr.Add(1)-1)%len(candidates)]
	}
}

// connFailure reports whether err is a connection-class failure that
// should count against the member's health (and is safe to re-run on
// another member: CompletedNo always, CompletedMaybe only for
// idempotent operations).
func connFailure(op *orb.Operation, err error) (counts, retry bool) {
	var sys *orb.SystemException
	if !errors.As(err, &sys) {
		return false, false
	}
	switch sys.Name {
	case "COMM_FAILURE", "TRANSIENT":
	default:
		return false, false
	}
	switch sys.Completed {
	case orb.CompletedNo:
		return true, true
	case orb.CompletedMaybe:
		return true, op.Idempotent
	default:
		return true, false
	}
}

// Invoke runs op against the group, spreading calls per the policy and
// failing the attempt over to the next member on connection failure.
func (b *Balancer) Invoke(op *orb.Operation, args []any) (any, []any, error) {
	return b.InvokeCtx(context.Background(), op, args)
}

// InvokeCtx is Invoke with a per-call context.
func (b *Balancer) InvokeCtx(ctx context.Context, op *orb.Operation, args []any) (any, []any, error) {
	failed := make(map[*member]bool, len(b.members))
	var lastErr error
	for len(failed) < len(b.members) {
		m := b.pick(failed)
		if m == nil {
			break
		}
		m.inflight.Add(1)
		res, outs, err := m.ref.InvokeCtx(ctx, op, args)
		m.inflight.Add(-1)
		if err == nil {
			m.served.Add(1)
			b.markSuccess(m)
			return res, outs, nil
		}
		counts, retry := connFailure(op, err)
		if counts {
			b.markFailure(m)
		}
		if !retry || ctx.Err() != nil {
			// Application errors, user exceptions, and uncertain
			// non-idempotent failures surface to the caller untouched.
			return res, outs, err
		}
		failed[m] = true
		lastErr = err
	}
	if lastErr == nil {
		lastErr = &orb.SystemException{Name: "TRANSIENT", Completed: orb.CompletedNo}
	}
	return nil, nil, lastErr
}

// markSuccess resets the member's health gate.
func (b *Balancer) markSuccess(m *member) {
	m.mu.Lock()
	m.failures = 0
	m.until = time.Time{}
	m.mu.Unlock()
}

// markFailure records one connection failure and evicts the member
// when the consecutive count crosses the threshold.
func (b *Balancer) markFailure(m *member) {
	m.mu.Lock()
	m.failures++
	evict := m.failures >= b.threshold()
	if evict {
		m.until = time.Now().Add(b.cooldown())
		m.failures = 0
	}
	m.mu.Unlock()
	if evict {
		b.evictions.Add(1)
	}
}
