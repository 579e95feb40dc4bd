package main

import (
	"sync/atomic"

	"zcorba/internal/media"
	"zcorba/internal/zcbuf"
)

// store is the benchmark's Media::Store servant. It checks the stamps
// and length of every zput and put payload, and stamps every zget reply
// with the next number of its own zget sequence, which the single
// caller of zget on a store counts in step.
type store struct {
	seed uint64
	// pool supplies zget reply buffers; the serving ORB releases them
	// once the reply deposit is written.
	pool     *zcbuf.Pool
	received atomic.Uint64
	zgets    atomic.Uint64
	// bad counts payloads that failed their stamp check.
	bad atomic.Int64
}

var _ media.Media_StoreHandler = (*store)(nil)

func (s *store) check(p []byte) error {
	if _, err := checkStamps(p, s.seed); err != nil {
		s.bad.Add(1)
		return &media.Media_TransferError{Reason: err.Error(), Code: 1}
	}
	s.received.Add(uint64(len(p)))
	return nil
}

func (s *store) GetReceived() (uint64, error) { return s.received.Load(), nil }

func (s *store) Put(data []byte) (uint32, error) {
	if err := s.check(data); err != nil {
		return 0, err
	}
	return uint32(len(data)), nil
}

func (s *store) Zput(data *zcbuf.Buffer) (uint32, error) {
	if err := s.check(data.Bytes()); err != nil {
		return 0, err
	}
	return uint32(data.Len()), nil
}

func (s *store) Get(n uint32) ([]byte, error) {
	return nil, &media.Media_TransferError{Reason: "get is not part of the benchmark", Code: 2}
}

func (s *store) Zget(n uint32) (*zcbuf.Buffer, error) {
	b, err := s.pool.Get(int(n))
	if err != nil {
		return nil, &media.Media_TransferError{Reason: err.Error(), Code: 3}
	}
	stamp(b.Bytes(), s.seed, s.zgets.Add(1))
	return b, nil
}

func (s *store) Describe(seq uint32) (media.Media_FrameInfo, error) {
	return media.Media_FrameInfo{Seq: seq}, nil
}

func (s *store) Reset() error { return nil }
