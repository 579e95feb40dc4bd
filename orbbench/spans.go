package main

import (
	"cmp"
	"fmt"
	"slices"

	"zcorba/internal/trace"
)

// Span analysis of a traced phase. Every ORB of the world records into
// its own tracer, so each span is known to be client- or server-side,
// and on which tier and data plane. Spans of one call share the trace
// ID the client minted; the client's invoke span is the root, and the
// ORB parents every other span of the call, on either side, to it.

// tagged is a span with the ORB that recorded it.
type tagged struct {
	trace.Span
	m *member
}

func (s tagged) end() int64 { return s.Start + s.Dur }

// collectSpans gathers the spans of every tracer of the world, and
// fails if a slab wrapped: self times must never come from a truncated
// trace.
func collectSpans(b *base) ([]tagged, error) {
	var out []tagged
	for _, m := range b.tracers() {
		spans := m.tracer.Spans()
		if total := m.tracer.TotalSpans(); total > int64(len(spans)) {
			return nil, fmt.Errorf("%s tracer recorded %d spans but kept %d: the slab wrapped", m.name, total, len(spans))
		}
		for _, s := range spans {
			out = append(out, tagged{s, m})
		}
	}
	return out, nil
}

// selfTime is s's duration minus the part of it that children cover.
func selfTime(s tagged, children []tagged) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.end(), s.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return s.Dur - covered
}

// layerAgg accumulates the per-layer figures of a traced phase: for
// each metric, the sum and count of its samples, overall and per op.
type layerAgg struct {
	sum     map[string]float64
	n       map[string]int64
	extents map[string]*hist // server call extents, per tier
}

func (a *layerAgg) add(name, op string, v float64) {
	for _, k := range []string{name, name + "[" + op + "]"} {
		a.sum[k] += v
		a.n[k]++
	}
}

// mean returns the mean of a metric's samples, 0 when it has none.
func (a *layerAgg) mean(name string) float64 {
	if a.n[name] == 0 {
		return 0
	}
	return a.sum[name] / float64(a.n[name])
}

// analyze computes span self times grouped by layer and op.
//
// Client side: orb.marshal_us, orb.control_send_us, orb.reply_unmarshal_us
// are span self times; orb.reply_wait_us is the invoke span's self time
// against the client's own child spans; orb.handoff_us is its self time
// against every child span, client and server, which leaves the wire and
// the scheduler handoffs. Server side: orb.server.{unmarshal,dispatch,
// reply_send}_us and, per tier, the call's extent from its first to its
// last server span. Data planes: deposit spans by plane. cdr: marshal
// and server unmarshal time per KiB of request body on put.
func analyze(spans []tagged) *layerAgg {
	a := &layerAgg{sum: map[string]float64{}, n: map[string]int64{}, extents: map[string]*hist{}}
	byTrace := map[trace.ID][]tagged{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, group := range byTrace {
		var root *tagged
		for i := range group {
			if group[i].Kind == trace.KindInvoke && !group[i].m.server {
				root = &group[i]
			}
		}
		if root == nil {
			continue // a span without a call, such as a lease event
		}
		op := root.Op
		var client, all []tagged
		var body int64
		srvLo, srvHi, tier := int64(0), int64(0), ""
		for _, s := range group {
			if s.Parent != root.Span.Span {
				continue
			}
			all = append(all, s)
			if !s.m.server {
				client = append(client, s)
				if s.Kind == trace.KindMarshal {
					body = s.Bytes
				}
			} else {
				if tier == "" || s.Start < srvLo {
					srvLo = s.Start
				}
				srvHi = max(srvHi, s.end())
				tier = s.m.tier
			}
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		a.add("orb.reply_wait_us", op, us(selfTime(*root, client)))
		a.add("orb.handoff_us", op, us(selfTime(*root, all)))
		if tier != "" {
			if a.extents[tier] == nil {
				a.extents[tier] = new(hist)
			}
			a.extents[tier].add(srvHi - srvLo)
		}
		// Only the invoke span has children, so every other span's self
		// time is its duration.
		for _, s := range all {
			if name := layerName(s); name != "" {
				a.add(name, op, us(s.Dur))
			}
			if op == "put" && body > 0 {
				switch {
				case s.Kind == trace.KindMarshal && !s.m.server:
					a.sum["cdr.marshal_ns"] += float64(s.Dur)
					a.sum["cdr.marshal_KiB"] += float64(body) / 1024
				case s.Kind == trace.KindUnmarshal && s.m.server:
					a.sum["cdr.unmarshal_ns"] += float64(s.Dur)
					a.sum["cdr.unmarshal_KiB"] += float64(body) / 1024
				}
			}
		}
	}
	return a
}

// layerName maps a call's span to the per-layer metric its self time
// feeds, by side, kind and plane.
func layerName(s tagged) string {
	switch s.Kind {
	case trace.KindMarshal:
		return "orb.marshal_us"
	case trace.KindControlSend:
		return "orb.control_send_us"
	case trace.KindUnmarshal:
		if s.m.server {
			return "orb.server.unmarshal_us"
		}
		return "orb.reply_unmarshal_us"
	case trace.KindDispatch:
		return "orb.server.dispatch_us"
	case trace.KindReplySend:
		return "orb.server.reply_send_us"
	case trace.KindDepositSend:
		return "transport." + s.m.plane + ".deposit_send_us"
	case trace.KindDepositRecv:
		return "transport." + s.m.plane + ".deposit_recv_us"
	case trace.KindShmDeposit:
		return "shmem.deposit_us"
	case trace.KindShmClaim:
		return "shmem.claim_us"
	case trace.KindKzcDeposit:
		return "kzc.deposit_us"
	case trace.KindGatherSend:
		return "orb.gather_send_us"
	}
	return ""
}
