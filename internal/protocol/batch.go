package protocol

import (
	"encoding/binary"
	"errors"
)

// OpBatch identifies a BatchFrame on the wire. It lives outside the
// contiguous command block so adding future commands keeps their numbering.
const OpBatch Opcode = 64

// ErrBadBatch reports a truncated or internally inconsistent batch frame.
var ErrBadBatch = errors.New("protocol: short or corrupt batch frame")

// Batch frame fixed layout: op + ackWanted + pad(2) + count(u32) +
// batchID(u64), followed by a u32 offset table (one entry per op, each the
// byte offset of that op's header inside the frame), the per-op request
// headers packed back to back, and finally one trailing region holding the
// inline SET values in op order.
const batchFixedBytes = 16

// BatchFrame is a doorbell-coalesced client→server message: N request
// headers (plus inline SET payloads) carried in one wire frame, costing one
// send, one flow-control credit, and one receive-repost instead of N.
//
// Each member request keeps its own ReqID and RespMR, so server responses
// still scatter one-per-op into the issuing client's registered response
// slots; only the request direction is coalesced. AckWanted asks the server
// for a single early OpBufferAck covering the whole batch (ReqID = BatchID).
type BatchFrame struct {
	BatchID   uint64
	AckWanted bool
	Reqs      []*Request
}

// WireSize returns the bytes this frame occupies on the wire: the fixed
// batch header, the per-op offset table, every member header, and the
// trailing inline-value region.
func (f *BatchFrame) WireSize() int {
	n := batchFixedBytes + 4*len(f.Reqs)
	for _, r := range f.Reqs {
		n += r.WireSize()
	}
	return n
}

// Marshal encodes the frame header, offset table, and member headers into
// dst (appending; pass nil or a reused slice). Inline values occupy the
// trailing region in WireSize terms but, as everywhere in the simulation,
// the value bytes themselves travel as opaque tokens — Marshal reserves no
// space for them.
func (f *BatchFrame) Marshal(dst []byte) []byte {
	dst = append(dst, byte(OpBatch))
	if f.AckWanted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, 0, 0) // pad
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Reqs)))
	dst = binary.LittleEndian.AppendUint64(dst, f.BatchID)
	off := batchFixedBytes + 4*len(f.Reqs)
	for _, r := range f.Reqs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(off))
		off += r.HeaderSize()
	}
	for _, r := range f.Reqs {
		dst = r.AppendHeader(dst)
	}
	return dst
}

// UnmarshalBatch decodes a frame produced by Marshal. Member value bytes are
// not materialized (values are opaque tokens in the simulation), so decoded
// requests carry ValueSize but a nil Value.
func UnmarshalBatch(b []byte) (*BatchFrame, error) {
	if len(b) < batchFixedBytes || Opcode(b[0]) != OpBatch {
		return nil, ErrBadBatch
	}
	// The count is the sender's word: it sizes nothing until the frame has
	// been seen to hold that many table entries.
	count := int(binary.LittleEndian.Uint32(b[4:]))
	tbl := batchFixedBytes
	if uint64(len(b)-tbl) < 4*uint64(count) {
		return nil, ErrBadBatch
	}
	f := &BatchFrame{
		BatchID:   binary.LittleEndian.Uint64(b[8:]),
		AckWanted: b[1] == 1,
		Reqs:      make([]*Request, 0, count),
	}
	prev := 0
	for i := 0; i < count; i++ {
		off := int(binary.LittleEndian.Uint32(b[tbl+4*i:]))
		if off < tbl+4*count || off < prev || off > len(b) {
			return nil, ErrBadBatch
		}
		r, err := UnmarshalHeader(b[off:])
		if err != nil {
			return nil, err
		}
		prev = off + r.HeaderSize()
		f.Reqs = append(f.Reqs, r)
	}
	return f, nil
}
