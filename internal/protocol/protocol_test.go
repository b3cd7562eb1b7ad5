package protocol

import (
	"testing"
	"testing/quick"
)

func TestRequestHeaderRoundTrip(t *testing.T) {
	r := &Request{
		Op: OpSet, ReqID: 12345, Key: "user:99:profile",
		Flags: 7, Expire: 3600, ValueSize: 32 * 1024,
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
		got.Flags != r.Flags || got.Expire != r.Expire ||
		got.ValueSize != r.ValueSize || got.RespMR != r.RespMR ||
		got.AckWanted != r.AckWanted {
		t.Errorf("round trip mismatch: %+v vs %+v", got, r)
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
	// The client takes its slot stride from what the server advertises: a
	// server built with this package's DirInlineMax must yield DirSlotBytes.
	info := &DirectoryInfo{InlineMax: DirInlineMax, Hot: []uint64{1, 2, 3}}
	if info.SlotBytes() != DirSlotBytes || DirSlotBytes != DirSlotHeaderBytes+DirInlineMax {
		t.Errorf("slot stride %d, DirSlotBytes %d", info.SlotBytes(), DirSlotBytes)
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

func TestOpcodeAndStatusStrings(t *testing.T) {
	cases := map[string]string{
		OpSet.String():          "SET",
		OpGet.String():          "GET",
		OpDelete.String():       "DELETE",
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
	f := func(reqID uint64, key string, flags, expire uint32, vs uint16, mr uint8, ack bool) bool {
		r := &Request{
			Op: OpSet, ReqID: reqID, Key: key, Flags: flags, Expire: expire,
			ValueSize: int(vs), RespMR: int(mr), AckWanted: ack,
		}
		got, err := UnmarshalHeader(r.MarshalHeader())
		if err != nil {
			return false
		}
		return got.ReqID == r.ReqID && got.Key == r.Key && got.Flags == r.Flags &&
			got.Expire == r.Expire && got.ValueSize == r.ValueSize &&
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
	for op := OpSet; op <= OpFlushAll; op++ {
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
