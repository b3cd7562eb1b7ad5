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

	"hybridkv/internal/pool"
)

// Opcode identifies a message type.
type Opcode uint8

const (
	OpSet Opcode = iota + 1
	OpGet
	OpResponse
	// OpBufferAck tells the client its request (header and value) is
	// buffered server-side and its buffers are reusable; it also returns
	// one flow-control credit (the server re-posted a receive).
	OpBufferAck
	// The conditional and read-modify-write commands of memcached.
	OpAdd  // store only if the key does not exist
	OpCAS  // store only if the caller's CAS token is current
	OpIncr // arithmetic increment of a counter value
	// OpDirQuery bootstraps the server-bypass read path: the response
	// carries a DirectoryInfo naming the server's published directory and
	// value MRs, after which the client resolves GET hits with one-sided
	// READs and never involves the server CPU again. Re-sent periodically
	// to refresh the hot set, it may carry in Key a GET the client resolved
	// one-sided: the server counts that read in its heat sketch.
	OpDirQuery
)

// CounterSize is the stored size of a numeric counter (decimal ASCII in real
// memcached; 20 bytes covers a uint64): what OpIncr works on is an OpSet of
// this size whose value is a uint64.
const CounterSize = 20

func (o Opcode) String() string {
	switch o {
	case OpSet:
		return "SET"
	case OpGet:
		return "GET"
	case OpResponse:
		return "RESPONSE"
	case OpBufferAck:
		return "BUFFER_ACK"
	case OpAdd:
		return "ADD"
	case OpCAS:
		return "CAS"
	case OpIncr:
		return "INCR"
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
	// StatusNotStored rejects Add on an existing key.
	StatusNotStored
	// StatusExists rejects a CAS store whose token is stale.
	StatusExists
	// StatusBadValue rejects Incr on a non-counter value.
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
	Op Opcode
	// AckWanted asks the server to send OpBufferAck as soon as the
	// request is buffered (bset/bget semantics on an async server).
	AckWanted bool
	Flags     uint32
	ReqID     uint64
	Key       string
	ValueSize int // bytes of value carried (Set only)
	Value     any // opaque payload token (Set only)
	// RespMR is the client's registered response region; the server
	// RDMA-WRITEs the response there (RDMA transport only).
	RespMR int
	// CAS carries the caller's token for OpCAS.
	CAS uint64
	// Delta carries the Incr amount.
	Delta uint64
	// KeyHash is FNV1a(Key), hashed once where the request was built and
	// read by every table and ring the key meets on its way: host-side state
	// that no header field carries, so WireSize does not count it. Zero on a
	// request built without one; HKey hashes the key then.
	KeyHash uint64
}

// Key is a key with its 64-bit FNV-1a hash: Hash is FNV1a(Str), always. A
// key is hashed once where it is born (KeyOf) and travels with its hash from
// then on, so the directory digest, the ring, the scrub bucket, the slab
// header and every key table (internal/keytab) read the one hash instead of
// each taking its own.
type Key struct {
	Hash uint64
	Str  string
}

// KeyOf hashes s.
func KeyOf(s string) Key { return Key{FNV1a(s), s} }

// HKey returns the request's key with its hash: KeyHash as carried, or
// FNV1a(Key) for a request built without one.
func (r *Request) HKey() Key {
	if r.KeyHash == 0 {
		return KeyOf(r.Key)
	}
	return Key{r.KeyHash, r.Key}
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

	// owner is the store's free list a server's reply came off (NewReply),
	// where its last Release puts it back; nil for a reply nobody recycles.
	pool.Holds
	owner *pool.List[Response, *Response]
}

// Header sizes, fixed by the marshaled layout below.
const (
	// op + ackWanted + pad(2) + flags + exptime + valueSize + respMR +
	// reqID + keyLen + cas + delta. The 4 exptime bytes are memcached's;
	// this store keeps no expiry, so they are always zero.
	reqFixedBytes  = 52
	RespHeaderSize = 32
)

// WireSize returns the bytes this request occupies on the wire:
// fixed header + key + value.
func (r *Request) WireSize() int {
	return reqFixedBytes + len(r.Key) + r.ValueSize
}

// Snapshot is a copy of r for a duplicated delivery (simnet.Snapshotter): a
// client keeps the message in a request record it reuses once the request is
// answered, so a second copy the server reads later must not alias it.
func (r *Request) Snapshot() any {
	c := *r
	return &c
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
	dst = append(dst, 0, 0, 0, 0) // exptime
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.ValueSize))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.RespMR))
	dst = binary.LittleEndian.AppendUint64(dst, r.ReqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(r.Key)))
	dst = binary.LittleEndian.AppendUint64(dst, r.CAS)
	dst = binary.LittleEndian.AppendUint64(dst, r.Delta)
	dst = append(dst, r.Key...)
	return dst
}

// Server-bypass directory wire layout. The directory is a bucket array
// inside one registered MR, each bucket DirWays fixed-size slots; clients
// resolve a lookup with one one-sided READ of the key's bucket, so the
// bucket geometry is part of the protocol, not the server.
const (
	// DirInlineMax is the largest value carried inside the slot itself, so
	// that the one bucket READ that resolves the lookup also returns the
	// bytes. Larger values live in the value MR and cost a second READ (or
	// one, from a cached offset). Every bucket READ moves DirBucketBytes
	// whatever it finds, so this constant trades bytes per READ against READs
	// per hit; DESIGN.md §11 justifies 512 from the measured
	// read_bytes_per_hit.
	DirInlineMax = 512
	// DirWays is the directory's associativity: how many keys one bucket
	// holds (DESIGN.md §11 measures 1, 2 and 4).
	DirWays = 2
	// DirSlotHeaderBytes is the fixed part of a slot: key digest (8) +
	// version (8) + kind (2) + the bucket's spill count (2, in the first
	// way's header; zero in the others) + item flags (4) + value offset (8) +
	// segment length (4) + value size (4) + CAS (8) + reserved (8), closed by a
	// second copy of the version (8) so that a reader can tell a slot caught
	// half-written from one that was still.
	DirSlotHeaderBytes = 64
	// DirSlotBytes is one directory slot on the wire: the header plus the
	// inline value area, used or not.
	DirSlotBytes = DirSlotHeaderBytes + DirInlineMax
	// DirBucketBytes is one bucket on the wire and the length of every
	// bucket READ: DirWays slots, empty ones included.
	DirBucketBytes = DirWays * DirSlotBytes
	// DirSegHeaderBytes is the validation header an offset-addressed value
	// READ carries alongside the value bytes: digest (8) + version (8) +
	// size (4) + flags (4) + CAS (8) + reserved (8).
	DirSegHeaderBytes = 40
	// DirInfoBytes is the fixed OpDirQuery response body: directory MR key
	// (8) + value MR key (8) + bucket count (4) + inline maximum (2) + way
	// count (2) + hot-set version (8) + hot-set count (8) + membership epoch
	// (8). The hot-key digests follow at 8 bytes each; use
	// DirectoryInfo.WireSize for the full payload.
	DirInfoBytes = 48
)

// DirectoryInfo is the OpDirQuery response payload: where the directory
// lives, how it is shaped, and — piggybacked on the same bootstrap — the
// server's currently published hot-key set, so clients learn which keys
// merit replicated-read fan-out without a dedicated control channel.
type DirectoryInfo struct {
	DirMR int // rkey of the bucket-array MR
	ValMR int // rkey of the offset-addressed value MR
	// Buckets is the bucket count: a key's home bucket is KeyDigest(key) %
	// Buckets, and its second choice AltBucket of that.
	Buckets int
	// InlineMax and Ways are the server's DirInlineMax and DirWays. The
	// client takes the bucket stride and the length of its bucket READs from
	// them (BucketBytes), so the two ends can never disagree silently about
	// where a bucket starts.
	InlineMax int
	Ways      int

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

// BucketBytes returns the directory's bucket stride, which is also the
// length of one bucket READ.
func (i *DirectoryInfo) BucketBytes() int { return i.Ways * (DirSlotHeaderBytes + i.InlineMax) }

// WireSize returns the OpDirQuery response payload size: the fixed header
// plus one digest per published hot key.
func (i *DirectoryInfo) WireSize() int { return DirInfoBytes + 8*len(i.Hot) }

// DirSlotKind says what the key's slot in one bucket READ holds — the four
// verdicts a lookup can get from the directory.
type DirSlotKind uint32

const (
	// DirEmpty: no key is published in this slot. A key that no way of its
	// home bucket holds — nor, when the home counts spills, of its
	// alternate — gets the miss verdict: the directory cannot answer (the key
	// may be absent, displaced by colliding keys, or withheld after a
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

// DirSlot is the client-side decode of one way of a directory bucket.
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
	Value     any // DirInline only
}

// DirBucket is one published directory bucket — what a bucket READ brings
// back: its ways in order, each under its own seqlock version, and its
// header. A server's bucket is a held record (NewDirBucket): its MR segment,
// each READ that captured it and each reader of such a READ hold it, and it
// is never rewritten, so every READ sees the bucket as it was at the instant
// of capture.
type DirBucket struct {
	Ways [DirWays]DirSlot
	// Spill counts the keys whose home is this bucket and that live in their
	// alternate (AltBucket), because every way here was taken when they
	// arrived. A client whose key this bucket lacks READs the alternate only
	// while it is non-zero. It is a hint, not under a seqlock: a key found
	// in either bucket is validated by its own way's version, and one found
	// in neither falls back to the server.
	Spill uint16

	// owner is the directory's free list the bucket came off, where its last
	// Release puts it back; nil for a bucket nobody recycles.
	pool.Holds
	owner *pool.List[DirBucket, *DirBucket]
}

// Way returns the slot holding digest, and false when no way does.
func (b *DirBucket) Way(digest uint64) (DirSlot, bool) {
	for _, s := range b.Ways {
		if s.Digest == digest {
			return s, true
		}
	}
	return DirSlot{}, false
}

// AltBucket is the second-choice bucket of a key whose home bucket is home,
// in a directory of buckets buckets: a key that finds every way of its home
// taken spills there. It is never the home itself (but in a one-bucket
// directory, which has no second choice), and keys sharing a home spread
// over different alternates, picked by the mixed digest.
func AltBucket(home int, digest uint64, buckets int) int {
	if buckets < 2 {
		return home
	}
	return (home + 1 + int(Mix64(digest)%uint64(buckets-1))) % buckets
}

// DirSegment is one published out-of-line value — what a value segment READ
// brings back: the value bytes prefixed by a validation header that lets the
// client detect a slot that was republished for a different key or bumped
// mid-flight. A server's segment is a held record (NewDirSegment), as a
// bucket is.
type DirSegment struct {
	Digest    uint64
	Version   uint64
	ValueSize int
	Flags     uint32
	CAS       uint64
	Value     any

	// owner is as DirBucket's.
	pool.Holds
	owner *pool.List[DirSegment, *DirSegment]
}

// WireSize returns the bytes a segment READ of this value moves.
func (s *DirSegment) WireSize() int { return DirSegHeaderBytes + s.ValueSize }

// KeyDigest is a key's directory digest for slot matching: its FNV-1a hash
// h (Key.Hash). Digest 0 is reserved to mean "empty slot", so real digests
// are folded away from it.
func KeyDigest(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// ErrShortHeader reports a truncated or corrupt header.
var ErrShortHeader = errors.New("protocol: short or corrupt header")

// UnmarshalHeader decodes a request header produced by MarshalHeader. A
// non-zero exptime is refused as corrupt: this store keeps no expiry, and a
// TTL it cannot honour must not be stored as "never".
func UnmarshalHeader(b []byte) (*Request, error) {
	if len(b) < reqFixedBytes || binary.LittleEndian.Uint32(b[8:]) != 0 {
		return nil, ErrShortHeader
	}
	r := &Request{
		Op:        Opcode(b[0]),
		AckWanted: b[1] == 1,
		Flags:     binary.LittleEndian.Uint32(b[4:]),
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
	r.KeyHash = FNV1a(r.Key)
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
