package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// Payload stamps. Every 4 KiB page of a payload starts with a 32-byte
// stamp naming the run seed, the call's sequence number, the page's
// index and the payload's total length. A receiver that knows the seed
// can check a payload without knowing anything else about the call:
// every page must carry the same sequence number, its own index and the
// length actually received. Bytes after a page's stamp are not checked,
// so stamping and checking cost a few bytes per page, not a pass over
// the payload, and leave the copy counts the benchmark measures alone.

const (
	pageSize  = 4096
	stampSize = 32
)

// stamp writes the stamps of call seq into every page of p.
func stamp(p []byte, seed, seq uint64) {
	for off, page := 0, uint32(0); off+stampSize <= len(p); off, page = off+pageSize, page+1 {
		s := p[off : off+stampSize]
		binary.LittleEndian.PutUint64(s[0:], seed)
		binary.LittleEndian.PutUint64(s[8:], seq)
		binary.LittleEndian.PutUint32(s[16:], page)
		binary.LittleEndian.PutUint32(s[20:], ^page)
		binary.LittleEndian.PutUint64(s[24:], uint64(len(p)))
	}
}

// checkStamps verifies every page stamp of p against seed and returns
// the call sequence number the payload carries.
func checkStamps(p []byte, seed uint64) (uint64, error) {
	if len(p) < stampSize {
		return 0, fmt.Errorf("payload of %d bytes is too short to carry a stamp", len(p))
	}
	seq := binary.LittleEndian.Uint64(p[8:])
	for off, page := 0, uint32(0); off+stampSize <= len(p); off, page = off+pageSize, page+1 {
		s := p[off : off+stampSize]
		switch {
		case binary.LittleEndian.Uint64(s[0:]) != seed:
			return seq, fmt.Errorf("page %d: seed %#x, want %#x", page, binary.LittleEndian.Uint64(s[0:]), seed)
		case binary.LittleEndian.Uint64(s[8:]) != seq:
			return seq, fmt.Errorf("page %d: call %d, page 0 says %d", page, binary.LittleEndian.Uint64(s[8:]), seq)
		case binary.LittleEndian.Uint32(s[16:]) != page || binary.LittleEndian.Uint32(s[20:]) != ^page:
			return seq, fmt.Errorf("page %d: stamped as page %d", page, binary.LittleEndian.Uint32(s[16:]))
		case binary.LittleEndian.Uint64(s[24:]) != uint64(len(p)):
			return seq, fmt.Errorf("page %d: stamped length %d, received %d", page, binary.LittleEndian.Uint64(s[24:]), len(p))
		}
	}
	return seq, nil
}

// schedule deals call classes in shuffled blocks of fixed composition:
// every block holds each class exactly as often as the workload's mix
// says, in an order drawn from the seed. A run therefore sees the same
// mix whatever its length and seed, while the seed alone fixes the
// order.
type schedule struct {
	block []uint8
	pos   int
	rng   *rand.Rand
}

// newSchedule builds the schedule of one caller. mix[c] is how many
// calls of class c one block holds; stream separates the schedules of
// callers sharing a seed.
func newSchedule(seed, stream uint64, mix []int) *schedule {
	s := &schedule{rng: rand.New(rand.NewPCG(seed, stream))}
	for c, n := range mix {
		for i := 0; i < n; i++ {
			s.block = append(s.block, uint8(c))
		}
	}
	s.pos = len(s.block)
	return s
}

// next returns the class of the next call.
func (s *schedule) next() uint8 {
	if s.pos == len(s.block) {
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	c := s.block[s.pos]
	s.pos++
	return c
}
