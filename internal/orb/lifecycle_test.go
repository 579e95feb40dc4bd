package orb

import (
	"errors"
	"testing"

	"zcorba/internal/transport"
	"zcorba/internal/typecode"
)

// TestDeactivateMidStream: requests against a key that is deactivated
// between invocations fail with OBJECT_NOT_EXIST, and reactivation
// with a different servant takes over cleanly.
func TestDeactivateMidStream(t *testing.T) {
	p := tcpPair(t, false)
	if _, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}}); err != nil {
		t.Fatal(err)
	}
	p.server.Deactivate("store")
	_, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}})
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "OBJECT_NOT_EXIST" {
		t.Fatalf("want OBJECT_NOT_EXIST after deactivation, got %v", err)
	}
	// _non_existent agrees.
	ne, err := p.ref.NonExistent()
	if err != nil || !ne {
		t.Fatalf("NonExistent: %v %v", ne, err)
	}
	// Reactivate and resume on the same connection.
	if _, err := p.server.Activate("store", newStoreServant()); err != nil {
		t.Fatal(err)
	}
	res, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1, 1}})
	if err != nil || res.(uint32) != 2 {
		t.Fatalf("post-reactivation: %v %v", res, err)
	}
}

// TestClientSignatureSkew: a client whose compiled signature disagrees
// with the server's (extra trailing parameter) gets a clean MARSHAL
// error from the server's demarshaler, not silent corruption.
func TestClientSignatureSkew(t *testing.T) {
	p := tcpPair(t, false)
	skewed := &Operation{
		Name: "put_std",
		Params: []Param{
			{Name: "data", Type: typecode.TCOctetSeq, Dir: In},
			{Name: "extra", Type: typecode.TCString, Dir: In},
		},
		Result: typecode.TCULong,
	}
	_, _, err := p.ref.Invoke(skewed, []any{[]byte{1, 2, 3}, "surprise"})
	// The server reads the sequence fine but the client sent extra
	// bytes the server never consumes: the server's decode of the
	// declared signature succeeds, so it replies normally. What must
	// NOT happen is a hang or a protocol failure on this connection.
	if err != nil {
		var se *SystemException
		if !errors.As(err, &se) {
			t.Fatalf("unexpected error type %v", err)
		}
	}
	// The connection must still be usable.
	res, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{[]byte{9}})
	if err != nil || res.(uint32) != 9 {
		t.Fatalf("post-skew call: %v %v", res, err)
	}
}

// TestMissingParameterRejected: fewer bytes than the signature needs is
// a MARSHAL system exception.
func TestMissingParameterRejected(t *testing.T) {
	p := tcpPair(t, false)
	skewed := &Operation{
		Name:   "swap", // server expects a string inout
		Params: nil,    // client sends nothing
		Result: typecode.TCVoid,
	}
	_, _, err := p.ref.Invoke(skewed, nil)
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "MARSHAL" {
		t.Fatalf("want MARSHAL for missing parameter, got %v", err)
	}
}

// TestManyInterfacesOneORB: several unrelated contracts served side by
// side on one ORB do not interfere.
func TestManyInterfacesOneORB(t *testing.T) {
	server, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	if _, err := server.Activate("store", newStoreServant()); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Activate("calc", dynCalc()); err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)

	storeRef, err := client.StringToObject(server.refForLocked("store", storeIface.RepoID).String())
	if err != nil {
		t.Fatal(err)
	}
	calcRef, err := client.StringToObject(server.refForLocked("calc", calcIface.RepoID).String())
	if err != nil {
		t.Fatal(err)
	}
	// Interleave calls on the shared connection.
	for i := 0; i < 10; i++ {
		res, _, err := storeRef.Invoke(storeIface.Ops["put_std"], []any{[]byte{byte(i)}})
		if err != nil || res.(uint32) != uint32(i) {
			t.Fatalf("store %d: %v %v", i, res, err)
		}
		sum, _, err := calcRef.Invoke(calcIface.Ops["add"], []any{int32(i), int32(1)})
		if err != nil || sum.(int32) != int32(i+1) {
			t.Fatalf("calc %d: %v %v", i, sum, err)
		}
	}
	// Cross-interface confusion: calling a calc op on the store object
	// is BAD_OPERATION, not a crash.
	_, _, err = storeRef.Invoke(calcIface.Ops["add"], []any{int32(1), int32(2)})
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "BAD_OPERATION" {
		t.Fatalf("want BAD_OPERATION, got %v", err)
	}
}

// TestNegativeDepositLeaseTTLRejected: deposit leases cannot be
// switched off; New refuses a negative DepositLeaseTTL.
func TestNegativeDepositLeaseTTLRejected(t *testing.T) {
	if o, err := New(Options{ZeroCopy: true, DepositLeaseTTL: -1}); err == nil {
		o.Shutdown()
		t.Fatal("New accepted a negative DepositLeaseTTL")
	}
}
