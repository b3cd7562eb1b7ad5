package protocol

import (
	"encoding/binary"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRequestHeaderRoundTrip(t *testing.T) {
	r := &Request{
		Op: OpSet, ReqID: 12345, Key: "user:99:profile",
		Flags: 7, ValueSize: 32 * 1024,
		RespMR: 42, AckWanted: true,
	}
	b := r.MarshalHeader()
	if len(b) != r.HeaderSize() {
		t.Fatalf("marshaled %d bytes, HeaderSize says %d", len(b), r.HeaderSize())
	}
	got, err := UnmarshalHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != r.Op || got.ReqID != r.ReqID || got.Key != r.Key ||
		got.Flags != r.Flags ||
		got.ValueSize != r.ValueSize || got.RespMR != r.RespMR ||
		got.AckWanted != r.AckWanted {
		t.Errorf("round trip mismatch: %+v vs %+v", got, r)
	}
}

// A hot-set refresh carries the GET it samples in the request's own Key
// field: the codec round-trips it, and it costs the key's bytes on the wire
// and nothing else.
func TestKeyedDirQueryRoundTrip(t *testing.T) {
	bare := &Request{Op: OpDirQuery, ReqID: 5}
	keyed := &Request{Op: OpDirQuery, ReqID: 6, Key: "user:7", RespMR: 3}
	got, err := UnmarshalHeader(keyed.MarshalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if keyed.KeyHash = FNV1a(keyed.Key); *got != *keyed {
		t.Errorf("round trip: %+v, sent %+v", got, keyed)
	}
	if keyed.WireSize() != bare.WireSize()+len(keyed.Key) {
		t.Errorf("keyed query is %d bytes, bare %d", keyed.WireSize(), bare.WireSize())
	}
}

// A key's second choice is a bucket other than its home, in range, the same
// at both ends; a one-bucket directory has none.
func TestAltBucket(t *testing.T) {
	const buckets = 1 << 15
	spread := map[int]bool{}
	for i := uint64(1); i <= 256; i++ {
		digest := i*buckets + 17 // every one homed at bucket 17
		alt := AltBucket(17, digest, buckets)
		if alt == 17 || alt < 0 || alt >= buckets || alt != AltBucket(17, digest, buckets) {
			t.Fatalf("digest %x: alternate %d", digest, alt)
		}
		spread[alt] = true
	}
	if len(spread) < 250 {
		t.Errorf("256 keys sharing a home have %d distinct alternates", len(spread))
	}
	if AltBucket(0, 99, 1) != 0 {
		t.Error("a one-bucket directory has a second choice")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{
		Op: OpResponse, ReqID: 777, Status: StatusOK,
		Flags: 3, CAS: 987654321, ValueSize: 8192,
	}
	b := r.Marshal()
	if len(b) != RespHeaderSize {
		t.Fatalf("marshaled %d bytes, want %d", len(b), RespHeaderSize)
	}
	got, err := UnmarshalResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != r.Op || got.ReqID != r.ReqID || got.Status != r.Status ||
		got.Flags != r.Flags || got.CAS != r.CAS || got.ValueSize != r.ValueSize {
		t.Errorf("round trip mismatch: %+v vs %+v", got, r)
	}
}

// Every client attempt embeds the Request it sends, and attempts come off
// the client's free list, so a byte here is paid once per pooled attempt,
// not per operation. Request is 88 bytes, the 96-byte class: the one-byte Op
// and AckWanted sit beside Flags rather than padded to a word each, and the
// key's carried hash (KeyHash) is one word.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 88 {
		t.Errorf("Request is %d bytes, want 88", got)
	}
}

func TestWireSizes(t *testing.T) {
	set := &Request{Op: OpSet, Key: "abc", ValueSize: 1000}
	if set.WireSize() != set.HeaderSize()+1000 {
		t.Errorf("set wire size %d", set.WireSize())
	}
	get := &Request{Op: OpGet, Key: "abc"}
	if get.WireSize() != get.HeaderSize() {
		t.Errorf("get wire size %d includes phantom value", get.WireSize())
	}
	ack := &Response{Op: OpBufferAck, ValueSize: 999999}
	if ack.WireSize() != RespHeaderSize {
		t.Errorf("ack wire size %d, want header only", ack.WireSize())
	}
	resp := &Response{Op: OpResponse, ValueSize: 100}
	if resp.WireSize() != RespHeaderSize+100 {
		t.Errorf("resp wire size %d", resp.WireSize())
	}
	// The client takes its bucket stride from what the server advertises: a
	// server built with this package's DirInlineMax and DirWays must yield
	// DirBucketBytes, DirWays slots of DirSlotBytes.
	info := &DirectoryInfo{InlineMax: DirInlineMax, Ways: DirWays, Hot: []uint64{1, 2, 3}}
	if info.BucketBytes() != DirBucketBytes || DirBucketBytes != DirWays*DirSlotBytes ||
		DirSlotBytes != DirSlotHeaderBytes+DirInlineMax {
		t.Errorf("bucket stride %d, DirBucketBytes %d, DirSlotBytes %d", info.BucketBytes(), DirBucketBytes, DirSlotBytes)
	}
	// A bucket READ answers from the way holding the digest, whichever it is.
	bucket := DirBucket{Ways: [DirWays]DirSlot{{Digest: 7, Version: 2}, {Digest: 9, Version: 4}}}
	if s, ok := bucket.Way(9); !ok || s.Version != 4 {
		t.Errorf("Way(9) = %+v, %v", s, ok)
	}
	if _, ok := bucket.Way(8); ok {
		t.Error("Way found a digest no way holds")
	}
	if info.WireSize() != DirInfoBytes+24 {
		t.Errorf("directory info wire size %d", info.WireSize())
	}
	seg := &DirSegment{ValueSize: 8192}
	if seg.WireSize() != DirSegHeaderBytes+8192 {
		t.Errorf("segment wire size %d", seg.WireSize())
	}
}

func TestUnmarshalShortBuffers(t *testing.T) {
	if _, err := UnmarshalHeader(make([]byte, 10)); err != ErrShortHeader {
		t.Errorf("short header err = %v", err)
	}
	if _, err := UnmarshalResponse(make([]byte, 5)); err != ErrShortHeader {
		t.Errorf("short response err = %v", err)
	}
	// Header whose key length field exceeds the buffer.
	r := &Request{Op: OpGet, Key: "0123456789"}
	b := r.MarshalHeader()
	if _, err := UnmarshalHeader(b[:len(b)-4]); err != ErrShortHeader {
		t.Errorf("truncated key err = %v", err)
	}
}

// A header carrying memcached's exptime is refused: the store keeps no
// expiry, so decoding it would store a TTL'd item as one that never expires.
func TestUnmarshalRefusesExptime(t *testing.T) {
	b := (&Request{Op: OpSet, Key: "k", ValueSize: 8}).MarshalHeader()
	if got := binary.LittleEndian.Uint32(b[8:]); got != 0 {
		t.Fatalf("marshaled exptime = %d, want 0", got)
	}
	binary.LittleEndian.PutUint32(b[8:], 60)
	if r, err := UnmarshalHeader(b); err != ErrShortHeader {
		t.Errorf("header with exptime 60 decoded to %+v, err %v", r, err)
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	cases := map[string]string{
		OpSet.String():          "SET",
		OpGet.String():          "GET",
		OpResponse.String():     "RESPONSE",
		OpBufferAck.String():    "BUFFER_ACK",
		StatusOK.String():       "OK",
		StatusNotFound.String(): "NOT_FOUND",
		StatusStored.String():   "STORED",
		StatusDeleted.String():  "DELETED",
		StatusTooLarge.String(): "TOO_LARGE",
		StatusError.String():    "ERROR",
		Opcode(99).String():     "Opcode(99)",
		Status(99).String():     "Status(99)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("%q != %q", got, want)
		}
	}
}

// Property: header round trip is lossless for arbitrary fields.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(reqID uint64, key string, flags uint32, vs uint16, mr uint8, ack bool) bool {
		r := &Request{
			Op: OpSet, ReqID: reqID, Key: key, Flags: flags,
			ValueSize: int(vs), RespMR: int(mr), AckWanted: ack,
		}
		got, err := UnmarshalHeader(r.MarshalHeader())
		if err != nil {
			return false
		}
		return got.ReqID == r.ReqID && got.Key == r.Key && got.Flags == r.Flags &&
			got.ValueSize == r.ValueSize &&
			got.RespMR == r.RespMR && got.AckWanted == r.AckWanted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: UnmarshalHeader and UnmarshalResponse never panic on arbitrary
// bytes — they either decode or return ErrShortHeader.
func TestUnmarshalRobustnessProperty(t *testing.T) {
	f := func(b []byte) bool {
		if _, err := UnmarshalHeader(b); err != nil && err != ErrShortHeader {
			return false
		}
		if _, err := UnmarshalResponse(b); err != nil && err != ErrShortHeader {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a marshaled header always round-trips regardless of opcode.
func TestAllOpcodesRoundTrip(t *testing.T) {
	for op := OpSet; op <= OpDirQuery; op++ {
		r := &Request{Op: op, ReqID: 9, Key: "key", CAS: 3, Delta: 4}
		got, err := UnmarshalHeader(r.MarshalHeader())
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got.Op != op || got.CAS != 3 || got.Delta != 4 {
			t.Errorf("%v round trip: %+v", op, got)
		}
	}
}
