package protocol

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// The parsers that face the wire, fuzzed. One property for all three: bytes
// from anywhere never panic the decoder, never make it allocate more than a
// constant times what it was given, and whatever it accepts re-marshals to
// bytes that decode to the same value. The seed corpus — the unit vectors of
// the tests beside this file plus the two crashers below — runs under plain
// `go test`; `make fuzz` runs each target for a short fixed time.

// decodeBound is what a decoder may allocate for n input bytes: the decoded
// records are a small multiple of the headers they were read from (a 52-byte
// header becomes a Request of about twice that, a 4-byte table entry an
// 8-byte pointer), plus slack for the fixed records and the runtime's noise.
func decodeBound(n int) uint64 { return 64<<10 + 16*uint64(n) }

// allocated is the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzDecode runs decode on b under the allocation bound, and returns what it
// decoded (ok false: rejected).
func fuzzDecode[T any](t *testing.T, b []byte, decode func([]byte) (*T, error)) (v *T, ok bool) {
	t.Helper()
	var err error
	if got := allocated(func() { v, err = decode(b) }); got > decodeBound(len(b)) {
		t.Fatalf("decoding %d bytes allocated %d", len(b), got)
	}
	return v, err == nil
}

// roundTrip checks that v, decoded from some input, re-marshals to bytes
// that decode to v again.
func roundTrip[T any](t *testing.T, v *T, marshal func(*T) []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	again, err := decode(marshal(v))
	if err != nil {
		t.Fatalf("re-marshaled %+v does not decode: %v", v, err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("decoded %+v, re-marshaled and decoded %+v", v, again)
	}
}

func FuzzUnmarshalHeader(f *testing.F) {
	f.Add((&Request{
		Op: OpSet, ReqID: 12345, Key: "user:99:profile",
		Flags: 7, ValueSize: 32 * 1024, RespMR: 42, AckWanted: true,
	}).MarshalHeader())
	// Every opcode twice: with the arithmetic fields, and with every field of
	// a store.
	for op := OpSet; op <= OpDirQuery; op++ {
		f.Add((&Request{Op: op, ReqID: 9, Key: "key", CAS: 3, Delta: 4}).MarshalHeader())
		f.Add((&Request{Op: op, ReqID: 10, Key: "k", Flags: 1, ValueSize: 8, RespMR: 2, AckWanted: true}).MarshalHeader())
	}
	get := (&Request{Op: OpGet, Key: "0123456789"}).MarshalHeader()
	f.Add(get[:len(get)-1])
	// Memcached's exptime set, on a SET and on a GET: refused whatever the
	// opcode, never stored as "never".
	for _, op := range []Opcode{OpSet, OpGet} {
		ttl := (&Request{Op: op, Key: "k"}).MarshalHeader()
		binary.LittleEndian.PutUint32(ttl[8:], 60)
		f.Add(ttl)
	}
	f.Add(get[:10])
	// A key length of 2^64-1: added to the fixed size it wrapped to 51,
	// passed the length check, and sliced [52:51].
	wrap := (&Request{Op: OpGet}).MarshalHeader()
	binary.LittleEndian.PutUint64(wrap[28:], ^uint64(0))
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, ok := fuzzDecode(t, b, UnmarshalHeader); ok {
			if binary.LittleEndian.Uint32(b[8:]) != 0 {
				t.Fatalf("a header with exptime %d decoded to %+v", binary.LittleEndian.Uint32(b[8:]), r)
			}
			roundTrip(t, r, (*Request).MarshalHeader, UnmarshalHeader)
		}
	})
}

func FuzzUnmarshalResponse(f *testing.F) {
	f.Add((&Response{Op: OpResponse, ReqID: 777, Status: StatusOK, Flags: 3, CAS: 987654321, ValueSize: 8192}).Marshal())
	f.Add((&Response{Op: OpResponse, ReqID: 5, Status: StatusBusy, RetryAfterUS: 250}).Marshal())
	f.Add((&Response{Op: OpBufferAck, ReqID: 6}).Marshal())
	f.Add(make([]byte, RespHeaderSize-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, ok := fuzzDecode(t, b, UnmarshalResponse); ok {
			roundTrip(t, r, (*Response).Marshal, UnmarshalResponse)
		}
	})
}

func FuzzUnmarshalBatch(f *testing.F) {
	for _, n := range []int{1, 3, 7} {
		f.Add(sampleBatch(n).Marshal(nil))
	}
	b := sampleBatch(3).Marshal(nil)
	f.Add(b[:8])
	f.Add(b[:batchFixedBytes+4])
	f.Add(b[:len(b)-10])
	// A count of 2^31 in a 16-byte frame: the decoder sized its slice by it —
	// 16 GB, a fatal out-of-memory no recover catches — before looking at how
	// long the frame was.
	huge := (&BatchFrame{BatchID: 1}).Marshal(nil)
	binary.LittleEndian.PutUint32(huge[4:], 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, ok := fuzzDecode(t, b, UnmarshalBatch); ok {
			roundTrip(t, fr, func(fr *BatchFrame) []byte { return fr.Marshal(nil) }, UnmarshalBatch)
		}
	})
}
