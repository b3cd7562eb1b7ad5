// Package protocol defines the binary wire protocol between the
// libmemcached-style client runtime and the hybrid Memcached server: request
// and response headers, opcodes and status codes, plus marshaling used to
// pin down exact wire sizes. In the simulation, messages travel as structs
// for speed while Size fields always come from the marshaled header length,
// so the timing model matches the real encoding.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Opcode identifies a message type.
type Opcode uint8

const (
	OpSet Opcode = iota + 1
	OpGet
	OpDelete
	OpResponse
	// OpBufferAck tells the client its request (header and value) is
	// buffered server-side and its buffers are reusable; it also returns
	// one flow-control credit (the server re-posted a receive).
	OpBufferAck
	// Storage commands of the full memcached command set.
	OpAdd     // store only if the key does not exist
	OpReplace // store only if the key exists
	OpAppend  // concatenate after the existing value
	OpPrepend // concatenate before the existing value
	OpCAS     // store only if the caller's CAS token is current
	OpIncr    // arithmetic increment of a counter value
	OpDecr    // arithmetic decrement (floored at zero)
	OpTouch   // update the expiration time only
	// OpFlushAll invalidates every item on the server.
	OpFlushAll
	// OpDirQuery bootstraps the server-bypass read path: the response
	// carries a DirectoryInfo naming the server's published directory and
	// value MRs, after which the client resolves GET hits with one-sided
	// READs and never involves the server CPU again.
	OpDirQuery
)

func (o Opcode) String() string {
	switch o {
	case OpSet:
		return "SET"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	case OpResponse:
		return "RESPONSE"
	case OpBufferAck:
		return "BUFFER_ACK"
	case OpAdd:
		return "ADD"
	case OpReplace:
		return "REPLACE"
	case OpAppend:
		return "APPEND"
	case OpPrepend:
		return "PREPEND"
	case OpCAS:
		return "CAS"
	case OpIncr:
		return "INCR"
	case OpDecr:
		return "DECR"
	case OpTouch:
		return "TOUCH"
	case OpFlushAll:
		return "FLUSH_ALL"
	case OpDirQuery:
		return "DIR_QUERY"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Status is a response status code.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusStored
	StatusDeleted
	StatusTooLarge
	StatusError
	// StatusNotStored rejects Add on an existing key or Replace/Append/
	// Prepend on a missing one.
	StatusNotStored
	// StatusExists rejects a CAS store whose token is stale.
	StatusExists
	// StatusBadValue rejects Incr/Decr on a non-counter value.
	StatusBadValue
	// StatusRecovering fails a request fast while the server rebuilds its
	// store from the SSD after a cold restart; clients treat it as
	// retryable backpressure.
	StatusRecovering
	// StatusBusy sheds a request at admission when the server's buffer
	// memory or storage queue is over its watermark. The response carries
	// a retry-after hint (Response.RetryAfterUS) in the flags slot;
	// clients treat it as retryable backpressure.
	StatusBusy
	// StatusNoReplica fails a replicated write whose coordinator could not
	// complete the replication chain (peers dead, partitioned, or holding
	// conflicting epochs beyond the retry budget). The write may have
	// landed on a subset of replicas; clients treat it as retryable and
	// anti-entropy reconverges the subset.
	StatusNoReplica
	// StatusCorrupt fails a read whose local copy failed integrity
	// verification: the item is quarantined, not served as garbage. It never
	// leaves the server's storage phase, on any pipeline or transport: a
	// replicated server repair-pulls from its peers before answering, an
	// unreplicated one degrades it to a miss. Clients never see it.
	StatusCorrupt
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusStored:
		return "STORED"
	case StatusDeleted:
		return "DELETED"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusError:
		return "ERROR"
	case StatusNotStored:
		return "NOT_STORED"
	case StatusExists:
		return "EXISTS"
	case StatusBadValue:
		return "BAD_VALUE"
	case StatusRecovering:
		return "RECOVERING"
	case StatusBusy:
		return "BUSY"
	case StatusNoReplica:
		return "NO_REPLICA"
	case StatusCorrupt:
		return "CORRUPT"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Request is a client→server message.
type Request struct {
	Op        Opcode
	ReqID     uint64
	Key       string
	Flags     uint32
	Expire    uint32 // seconds; 0 = never
	ValueSize int    // bytes of value carried (Set only)
	Value     any    // opaque payload token (Set only)
	// RespMR is the client's registered response region; the server
	// RDMA-WRITEs the response there (RDMA transport only).
	RespMR int
	// AckWanted asks the server to send OpBufferAck as soon as the
	// request is buffered (bset/bget semantics on an async server).
	AckWanted bool
	// CAS carries the caller's token for OpCAS.
	CAS uint64
	// Delta carries the Incr/Decr amount.
	Delta uint64
}

// Response is a server→client message.
type Response struct {
	Op        Opcode // OpResponse or OpBufferAck
	ReqID     uint64
	Status    Status
	Flags     uint32
	CAS       uint64
	ValueSize int
	Value     any
	// RetryAfterUS is the server's backoff hint in microseconds on a
	// StatusBusy rejection. A rejected request carries no item metadata,
	// so the hint reuses the flags slot on the wire: header size and
	// therefore all transfer timings are unchanged.
	RetryAfterUS uint32
}

// Header sizes, fixed by the marshaled layout below.
const (
	// op + ackWanted + pad(2) + flags + expire + valueSize + respMR +
	// reqID + keyLen + cas + delta
	reqFixedBytes  = 52
	RespHeaderSize = 32
)

// WireSize returns the bytes this request occupies on the wire:
// fixed header + key + value.
func (r *Request) WireSize() int {
	return reqFixedBytes + len(r.Key) + r.ValueSize
}

// HeaderSize returns the bytes of the request header alone (no value).
func (r *Request) HeaderSize() int {
	return reqFixedBytes + len(r.Key)
}

// WireSize returns the bytes this response occupies on the wire.
func (r *Response) WireSize() int {
	if r.Op == OpBufferAck {
		return RespHeaderSize
	}
	return RespHeaderSize + r.ValueSize
}

// MarshalHeader encodes the request header (everything but the value bytes).
func (r *Request) MarshalHeader() []byte {
	return r.AppendHeader(make([]byte, 0, r.HeaderSize()))
}

// AppendHeader encodes the request header onto dst and returns the extended
// slice, letting hot paths (batch frames, microbenchmarks) reuse one buffer
// across many requests instead of allocating per op.
func (r *Request) AppendHeader(dst []byte) []byte {
	dst = append(dst, byte(r.Op))
	if r.AckWanted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, 0, 0) // pad
	dst = binary.LittleEndian.AppendUint32(dst, r.Flags)
	dst = binary.LittleEndian.AppendUint32(dst, r.Expire)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ValueSize))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.RespMR))
	dst = binary.LittleEndian.AppendUint64(dst, r.ReqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.Key)))
	dst = binary.LittleEndian.AppendUint64(dst, r.CAS)
	dst = binary.LittleEndian.AppendUint64(dst, r.Delta)
	dst = append(dst, r.Key...)
	return dst
}

// Server-bypass directory wire layout. The directory is a bucket array of
// fixed-size slots inside one registered MR; clients resolve a lookup with
// one one-sided READ of the key's slot, so the slot geometry is part of the
// protocol, not the server.
const (
	// DirInlineMax is the largest value carried inside the slot itself, so
	// that the one slot READ that resolves the lookup also returns the bytes.
	// Larger values live in the value MR and cost a second READ (or one, from
	// a cached offset). Every slot READ moves DirSlotBytes whatever it finds,
	// so this constant trades bytes per READ against READs per hit; DESIGN.md
	// §11 justifies 512 from the measured read_bytes_per_hit.
	DirInlineMax = 512
	// DirSlotHeaderBytes is the fixed part of a slot: key digest (8) +
	// version (8) + kind (4) + item flags (4) + value offset (8) + segment
	// length (4) + value size (4) + CAS (8) + expiry (8), closed by a second
	// copy of the version (8) so that a reader can tell a slot caught
	// half-written from one that was still.
	DirSlotHeaderBytes = 64
	// DirSlotBytes is one directory slot on the wire and the length of every
	// slot READ: the header plus the inline value area, used or not.
	DirSlotBytes = DirSlotHeaderBytes + DirInlineMax
	// DirSegHeaderBytes is the validation header an offset-addressed value
	// READ carries alongside the value bytes: digest (8) + version (8) +
	// size (4) + flags (4) + CAS (8) + expiry (8).
	DirSegHeaderBytes = 40
	// DirInfoBytes is the fixed OpDirQuery response body: directory MR key
	// (8) + value MR key (8) + bucket count (4) + inline maximum (4) +
	// hot-set version (8) + hot-set count (8) + membership epoch (8). The
	// hot-key digests follow at 8 bytes each; use DirectoryInfo.WireSize for
	// the full payload.
	DirInfoBytes = 48
)

// DirectoryInfo is the OpDirQuery response payload: where the directory
// lives, how it is shaped, and — piggybacked on the same bootstrap — the
// server's currently published hot-key set, so clients learn which keys
// merit replicated-read fan-out without a dedicated control channel.
type DirectoryInfo struct {
	DirMR   int // rkey of the slot-array MR
	ValMR   int // rkey of the offset-addressed value MR
	Buckets int // slot count; bucket(key) = KeyDigest(key) % Buckets
	// InlineMax is the server's DirInlineMax. The client takes the slot
	// stride and the length of its slot READs from it (SlotBytes), so the
	// two ends can never disagree silently about where a slot starts.
	InlineMax int

	// Hot is the server's published hot-key digest set (sorted), and
	// HotVersion its monotone publication version: a client replaces its
	// cached set whenever the version moves.
	Hot        []uint64
	HotVersion uint64

	// MemberEpoch is the server's membership epoch (0 from an unreplicated one).
	// A client seeing it advance drops the connection's cached value
	// offsets: placement learned under an older epoch is unusable for
	// one-sided READs.
	MemberEpoch uint64
}

// SlotBytes returns the directory's slot stride, which is also the length
// of one slot READ.
func (i *DirectoryInfo) SlotBytes() int { return DirSlotHeaderBytes + i.InlineMax }

// WireSize returns the OpDirQuery response payload size: the fixed header
// plus one digest per published hot key.
func (i *DirectoryInfo) WireSize() int { return DirInfoBytes + 8*len(i.Hot) }

// DirSlotKind says what one slot READ found — the four verdicts a lookup
// can get from the directory.
type DirSlotKind uint32

const (
	// DirEmpty: no key is published in this bucket. Together with a foreign
	// digest it is the miss verdict: the directory cannot answer (the key
	// may be absent, displaced by a colliding key, or withheld after a
	// restart), so the server is asked.
	DirEmpty DirSlotKind = iota
	// DirInline: the value is in the slot (Value, ValueSize ≤ DirInlineMax).
	DirInline
	// DirAtOffset: the value is the snapshot segment at Off/Len in the value
	// MR.
	DirAtOffset
	// DirOnSSD: the key exists but its value is not in registered memory
	// (flushed to an SSD extent, or dropped by eviction): RPC only.
	DirOnSSD
)

// DirSlot is the client-side decode of one directory slot READ.
type DirSlot struct {
	Digest  uint64 // KeyDigest of the occupying key; 0 = empty slot
	Version uint64 // seqlock: odd = mutation in progress
	Kind    DirSlotKind
	Off     int64 // DirAtOffset: value segment offset inside ValMR
	Len     int   // DirAtOffset: segment bytes to READ there
	// Item metadata, valid for DirInline (DirAtOffset carries its own copy
	// in the segment header).
	ValueSize int
	Flags     uint32
	CAS       uint64
	ExpireAt  int64 // absolute sim time; 0 = never
	Value     any   // DirInline only
}

// DirSegment is the client-side decode of one value segment READ: the value
// bytes prefixed by a validation header that lets the client detect a slot
// that was republished for a different key or bumped mid-flight.
type DirSegment struct {
	Digest    uint64
	Version   uint64
	ValueSize int
	Flags     uint32
	CAS       uint64
	ExpireAt  int64 // absolute sim time; 0 = never
	Value     any
}

// WireSize returns the bytes a segment READ of this value moves.
func (s *DirSegment) WireSize() int { return DirSegHeaderBytes + s.ValueSize }

// KeyDigest hashes a key for directory slot matching (FNV-1a). Digest 0 is
// reserved to mean "empty slot", so real digests are folded away from it.
func KeyDigest(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	d := uint64(offset64)
	for i := 0; i < len(key); i++ {
		d ^= uint64(key[i])
		d *= prime64
	}
	if d == 0 {
		d = 1
	}
	return d
}

// ErrShortHeader reports a truncated or corrupt header.
var ErrShortHeader = errors.New("protocol: short or corrupt header")

// UnmarshalHeader decodes a request header produced by MarshalHeader.
func UnmarshalHeader(b []byte) (*Request, error) {
	if len(b) < reqFixedBytes {
		return nil, ErrShortHeader
	}
	r := &Request{
		Op:        Opcode(b[0]),
		AckWanted: b[1] == 1,
		Flags:     binary.LittleEndian.Uint32(b[4:]),
		Expire:    binary.LittleEndian.Uint32(b[8:]),
		ValueSize: int(binary.LittleEndian.Uint32(b[12:])),
		RespMR:    int(binary.LittleEndian.Uint32(b[16:])),
		ReqID:     binary.LittleEndian.Uint64(b[20:]),
	}
	keyLen := binary.LittleEndian.Uint64(b[28:])
	r.CAS = binary.LittleEndian.Uint64(b[36:])
	r.Delta = binary.LittleEndian.Uint64(b[44:])
	// Compared on the side that cannot wrap: a key length near 2^64 added to
	// the fixed size comes out small.
	if keyLen > uint64(len(b)-reqFixedBytes) {
		return nil, ErrShortHeader
	}
	r.Key = string(b[reqFixedBytes : reqFixedBytes+int(keyLen)])
	return r, nil
}

// Marshal encodes the response header.
func (r *Response) Marshal() []byte {
	buf := make([]byte, 0, RespHeaderSize)
	buf = append(buf, byte(r.Op), byte(r.Status), 0, 0)
	if r.Status == StatusBusy {
		buf = binary.LittleEndian.AppendUint32(buf, r.RetryAfterUS)
	} else {
		buf = binary.LittleEndian.AppendUint32(buf, r.Flags)
	}
	buf = binary.LittleEndian.AppendUint64(buf, r.CAS)
	buf = binary.LittleEndian.AppendUint64(buf, r.ReqID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ValueSize))
	return buf
}

// UnmarshalResponse decodes a response header.
func UnmarshalResponse(b []byte) (*Response, error) {
	if len(b) < RespHeaderSize {
		return nil, ErrShortHeader
	}
	r := &Response{
		Op:        Opcode(b[0]),
		Status:    Status(b[1]),
		Flags:     binary.LittleEndian.Uint32(b[4:]),
		CAS:       binary.LittleEndian.Uint64(b[8:]),
		ReqID:     binary.LittleEndian.Uint64(b[16:]),
		ValueSize: int(binary.LittleEndian.Uint64(b[24:])),
	}
	if r.Status == StatusBusy {
		r.RetryAfterUS, r.Flags = r.Flags, 0
	}
	return r, nil
}
