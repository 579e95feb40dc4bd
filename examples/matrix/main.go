// Matrix: data-parallel matrix multiplication over the zero-copy ORB —
// the §1.2 scenario where "parallel programs based on message passing
// middleware and classical distributed systems based on CORBA" share
// one cluster. A master scatters row blocks of A (plus the full B) to
// an object group of Multiplier workers (internal/group) and gathers
// the partial products of C = A·B.
//
//	go run ./examples/matrix [-n 768] [-workers 4] [-standard]
//
// Matrices are byte-valued with multiplication in GF(256)-free integer
// arithmetic truncated to a byte, so the distributed result can be
// verified exactly against a local computation. The Multiplier stubs
// and skeletons in matrix_gen.go are produced by
//
//	idlgen -pkg main -zerocopy -o matrix_gen.go matrix.idl
//
// i.e. with the paper's compiler switch that turns every
// sequence<octet> into a zero-copy sequence<ZC_Octet>.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"zcorba/internal/group"
	"zcorba/internal/ior"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// multiplier implements Matrix_MultiplierHandler.
type multiplier struct{}

func (multiplier) Multiply(aRows, b *zcbuf.Buffer, n, rows uint32) (*zcbuf.Buffer, error) {
	N, R := int(n), int(rows)
	if aRows.Len() != R*N || b.Len() != N*N {
		return nil, &Matrix_BadShape{Reason: fmt.Sprintf(
			"aRows=%d b=%d for n=%d rows=%d", aRows.Len(), b.Len(), N, R)}
	}
	return zcbuf.Wrap(multiplyBlock(aRows.Bytes(), b.Bytes(), N, R)), nil
}

// multiplyBlock computes rows×n of C = A·B with byte-truncated sums.
func multiplyBlock(a, b []byte, n, rows int) []byte {
	c := make([]byte, rows*n)
	for i := 0; i < rows; i++ {
		ai := a[i*n : (i+1)*n]
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
	return c
}

func genMatrix(n int, seed byte) []byte {
	m := make([]byte, n*n)
	v := uint32(seed)*2654435761 + 1
	for i := range m {
		v = v*1664525 + 1013904223
		m[i] = byte(v >> 24)
	}
	return m
}

func main() {
	n := flag.Int("n", 768, "matrix dimension")
	workers := flag.Int("workers", 4, "number of multiplier workers")
	standard := flag.Bool("standard", false, "disable the zero-copy extension")
	flag.Parse()
	zc := !*standard
	if *n%*workers != 0 {
		log.Fatalf("n=%d must be divisible by workers=%d", *n, *workers)
	}

	// Worker ORBs, one per node, published as one object group.
	master, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown()
	var ids []string
	var refs []*orb.ObjectRef
	for i := 0; i < *workers; i++ {
		w, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: zc})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Shutdown()
		ref, err := w.Activate("multiplier", Matrix_MultiplierSkeleton{Impl: multiplier{}})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, fmt.Sprintf("w-%d", i))
		refs = append(refs, ref)
	}
	gior, err := group.IORFromMembers("multipliers", ior.PolicyRoundRobin, ids, refs)
	if err != nil {
		log.Fatal(err)
	}
	farm, err := group.NewBalancer(master, gior)
	if err != nil {
		log.Fatal(err)
	}

	a := genMatrix(*n, 1)
	b := genMatrix(*n, 2)
	bytesMoved := (*n)*(*n) + *workers*((*n)*(*n)/(*workers))*2
	fmt.Printf("distributing C = A·B, n=%d (%.1f MB across the farm, zero-copy=%v)\n",
		*n, float64(bytesMoved+(*n)*(*n)*(*workers))/1e6, zc)

	// One scatter sends each worker its block of A's rows (n divides
	// evenly, so BlockPartition cuts on row boundaries) with B, n and
	// the row count broadcast; the gather reassembles C in member order.
	rowsPer := uint32(*n / *workers)
	start := time.Now()
	results, err := farm.Scatter(context.Background(), Matrix_MultiplierIface.Ops["multiply"],
		[]any{nil, b, uint32(*n), rowsPer}, 0, a, group.BlockPartition)
	if err != nil {
		log.Fatal(err)
	}
	c, err := group.GatherBytes(results)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Verify against a local computation.
	verifyStart := time.Now()
	want := multiplyBlock(a, b, *n, *n)
	localElapsed := time.Since(verifyStart)
	if !bytes.Equal(c, want) {
		log.Fatal("distributed result does not match local computation")
	}

	fmt.Printf("distributed: %.3fs across %d workers; local single-threaded: %.3fs (%.1fx)\n",
		elapsed.Seconds(), *workers, localElapsed.Seconds(),
		localElapsed.Seconds()/elapsed.Seconds())
	ms := master.Stats()
	fmt.Printf("result verified; master payload copies=%d (%d bytes), deposits=%d (%d bytes)\n",
		ms.PayloadCopies.Load(), ms.PayloadCopyBytes.Load(),
		ms.DepositsSent.Load(), ms.DepositBytesSent.Load())
}
