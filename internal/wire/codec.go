package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Codec limits, chosen to match ZooKeeper's jute.maxbuffer default (1 MB)
// plus headroom for the SecureKeeper ciphertext expansion (~33 % Base64 +
// IV/HMAC per path chunk).
const (
	// MaxBufferSize bounds any single serialized buffer or string.
	MaxBufferSize = 4 << 20
	// MaxVectorLen bounds the number of elements in a serialized vector.
	MaxVectorLen = 1 << 20
)

// Serialization errors.
var (
	ErrBufferTooLarge = errors.New("wire: buffer exceeds maximum size")
	ErrShortBuffer    = errors.New("wire: short buffer")
	ErrNegativeLen    = errors.New("wire: negative length")
)

// Encoder serializes primitive values into a growable byte slice using
// big-endian, length-prefixed encoding (the jute convention).
type Encoder struct {
	buf []byte
	// mapPath and err serve AppendToMapping.
	mapPath func(dst []byte, s string) ([]byte, error)
	err     error
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// AppendTo returns an encoder that appends to dst, for a caller that
// serializes into memory it already owns (the entry enclave rewriting a
// message inside its ecall slot). Bound dst's capacity to the room there
// is and compare Len against it afterwards: past the capacity the
// encoder moves to a fresh array like any append, and dst's is left
// incomplete.
func AppendTo(dst []byte) Encoder { return Encoder{buf: dst} }

// AppendToMapping is AppendTo with every path field — what a record
// writes with WritePath, and nothing else — passed through m, which
// appends what to write in the field's place to dst and returns the
// extended slice. It lets a caller that rewrites the paths of a record
// (the entry enclave encrypting and decrypting them) serialize the
// record's own layout without first building each replacement string.
// The first error m returns is kept for Err, and that field is written
// empty.
func AppendToMapping(dst []byte, m func(dst []byte, s string) ([]byte, error)) Encoder {
	return Encoder{buf: dst, mapPath: m}
}

// Err returns the first error of an AppendToMapping mapping.
func (e *Encoder) Err() error { return e.err }

// Bytes returns the serialized contents. The returned slice aliases the
// encoder's internal buffer; callers that retain it must not reuse the
// encoder afterwards.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse, retaining the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// maxPooledEncoderCap bounds the capacity of encoders returned to the
// pool, so one snapshot-sized serialization does not pin megabytes.
const maxPooledEncoderCap = 64 << 10

var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// GetEncoder returns a reset encoder from the shared pool. Callers on
// hot paths pair it with PutEncoder once the serialized bytes have been
// copied out (or handed to a consumer that does not retain them, such
// as a transport SendFrame).
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder to the pool. The caller must not touch
// the encoder or any slice obtained from Bytes afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledEncoderCap {
		return
	}
	encoderPool.Put(e)
}

// WriteBool appends a boolean as a single byte.
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// WriteByte appends a raw byte.
func (e *Encoder) WriteByte(v byte) error {
	e.buf = append(e.buf, v)
	return nil
}

// WriteInt32 appends a big-endian int32.
func (e *Encoder) WriteInt32(v int32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
}

// WriteInt64 appends a big-endian int64.
func (e *Encoder) WriteInt64(v int64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
}

// WriteBuffer appends a length-prefixed byte buffer. A nil buffer is
// encoded with length -1, matching jute semantics.
func (e *Encoder) WriteBuffer(v []byte) {
	if v == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(v)))
	e.buf = append(e.buf, v...)
}

// WriteRaw appends bytes verbatim, with no length prefix. Used for
// framing layers that carry pre-encoded payload chunks (the zab peer
// transport's fragmented snapshot frames).
func (e *Encoder) WriteRaw(v []byte) {
	e.buf = append(e.buf, v...)
}

// WriteString appends a length-prefixed UTF-8 string.
func (e *Encoder) WriteString(v string) {
	e.WriteInt32(int32(len(v)))
	e.buf = append(e.buf, v...)
}

// WritePath appends a znode path, or one element of a path (a child's
// name): a string on the wire like any other, written by the fields an
// AppendToMapping encoder replaces. A string field that is not a path
// (an ACL id, an address) must use WriteString, or the entry enclave
// would encrypt it as one.
func (e *Encoder) WritePath(v string) {
	if e.mapPath == nil {
		e.WriteString(v)
		return
	}
	// The length prefix is reserved, the mapping appends behind it, and
	// the prefix is then set to what it added.
	at := len(e.buf)
	e.WriteInt32(0)
	buf, err := e.mapPath(e.buf, v)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		buf = e.buf // drop whatever the mapping had appended
	}
	e.buf = buf
	binary.BigEndian.PutUint32(e.buf[at:], uint32(len(e.buf)-at-4))
}

// WriteStringVector appends a length-prefixed vector of strings.
func (e *Encoder) WriteStringVector(v []string) {
	if v == nil {
		e.WriteInt32(-1)
		return
	}
	e.WriteInt32(int32(len(v)))
	for _, s := range v {
		e.WriteString(s)
	}
}

// Decoder deserializes primitive values from a byte slice. Like the
// Encoder it keeps its first error: a read that fails records why, and
// from then on every read returns the zero value, consumes nothing and
// allocates nothing. A record's Deserialize therefore assigns one field
// per line and consults Err once, at its end (and before it trusts a
// decoded value in a range check of its own, or goes round a loop a
// decoded count drives).
type Decoder struct {
	buf []byte
	off int
	err error
	// zeroCopy makes ReadBuffer return sub-slices of buf instead of
	// copies. Only safe when the decoded records do not outlive buf.
	zeroCopy bool
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Reset re-targets the decoder at buf, clearing position, kept error
// and mode, so a stack-allocated (or reused) Decoder value avoids the
// NewDecoder heap allocation on hot paths.
func (d *Decoder) Reset(buf []byte) {
	*d = Decoder{buf: buf}
}

// SetZeroCopy toggles zero-copy ReadBuffer mode: byte fields alias the
// decoded buffer rather than being copied. Callers that immediately
// re-encode or transform the fields (the entry enclave's ecall bodies)
// use this to skip one copy per byte field; anything that retains the
// decoded record beyond the buffer's lifetime must not.
func (d *Decoder) SetZeroCopy(on bool) { d.zeroCopy = on }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current read position.
func (d *Decoder) Offset() int { return d.off }

// Err returns the error of the first read that failed, nil if none has.
func (d *Decoder) Err() error { return d.err }

// Finish ends the decoding of a buffer that holds exactly one record:
// err, the verdict of the record's Deserialize, if it has one; else the
// decoder's kept error; else an error for bytes left over.
func (d *Decoder) Finish(err error) error {
	if err == nil {
		err = d.err
	}
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("wire: %d trailing bytes after the record", d.Remaining())
	}
	return err
}

// take consumes the next n bytes and returns them, still part of buf;
// nil, with the reason kept, if that many are not there.
func (d *Decoder) take(n int) []byte {
	switch {
	case d.err != nil:
	case n < 0:
		d.err = ErrNegativeLen
	case n > d.Remaining():
		d.err = ErrShortBuffer
	default:
		d.off += n
		return d.buf[d.off-n : d.off : d.off]
	}
	return nil
}

// ReadBool reads a single-byte boolean.
func (d *Decoder) ReadBool() bool { return d.ReadUint8() != 0 }

// ReadUint8 reads one raw byte, the counterpart of WriteByte (go vet
// reserves the name ReadByte for a method that returns an error).
func (d *Decoder) ReadUint8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// ReadInt32 reads a big-endian int32.
func (d *Decoder) ReadInt32() int32 {
	if b := d.take(4); b != nil {
		return int32(binary.BigEndian.Uint32(b))
	}
	return 0
}

// ReadInt64 reads a big-endian int64.
func (d *Decoder) ReadInt64() int64 {
	if b := d.take(8); b != nil {
		return int64(binary.BigEndian.Uint64(b))
	}
	return 0
}

// readLen reads the length prefix of a buffer or string. (A prefix that
// is not zero was read, so the error it earns is the first.)
func (d *Decoder) readLen() int {
	n := d.ReadInt32()
	if n > MaxBufferSize {
		d.err = ErrBufferTooLarge
	}
	return int(n)
}

// ReadBuffer reads a length-prefixed byte buffer. Length -1 yields nil.
// The returned slice is a copy, safe to retain — unless the decoder is
// in zero-copy mode, in which case it aliases the decoded buffer.
func (d *Decoder) ReadBuffer() []byte {
	n := d.readLen()
	if n == -1 {
		return nil
	}
	return d.ReadRaw(n)
}

// ReadRaw reads exactly n unprefixed bytes, the counterpart of
// WriteRaw. In zero-copy mode the result aliases the decoded buffer.
func (d *Decoder) ReadRaw(n int) []byte {
	b := d.take(n)
	if d.zeroCopy || d.err != nil {
		return b
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// ReadString reads a length-prefixed UTF-8 string.
func (d *Decoder) ReadString() string { return string(d.take(d.readLen())) }

// ReadStringVector reads a length-prefixed vector of strings. Length -1
// yields nil.
func (d *Decoder) ReadStringVector() []string {
	n := d.ReadInt32()
	switch {
	case n == -1:
		return nil
	case n < 0:
		d.err = ErrNegativeLen
	case n > MaxVectorLen:
		d.err = fmt.Errorf("wire: vector length %d exceeds limit", n)
	}
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, min(int(n), 4096))
	for i := int32(0); i < n && d.err == nil; i++ {
		out = append(out, d.ReadString())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Record is any protocol message that knows how to serialize itself.
type Record interface {
	Serialize(e *Encoder)
	Deserialize(d *Decoder) error
}

// Detach ends the use of a pooled encoder: it returns the serialized
// contents as a fresh, exactly-sized slice the caller owns and puts the
// encoder back. Hot paths pair it with GetEncoder and concrete
// Serialize calls, which keep header and body records on the caller's
// stack where Marshal and MarshalPair (interface arguments) move them
// to the heap.
func Detach(e *Encoder) []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	PutEncoder(e)
	return out
}

// Marshal serializes a record to a fresh, exactly-sized byte slice.
func Marshal(r Record) []byte {
	e := GetEncoder()
	r.Serialize(e)
	return Detach(e)
}

// Unmarshal deserializes a record from buf and verifies the record
// consumed the whole buffer.
func Unmarshal(buf []byte, r Record) error {
	d := NewDecoder(buf)
	return d.Finish(r.Deserialize(d))
}

// MarshalPair serializes a header followed by a body; either may be
// nil. The result is a fresh, exactly-sized slice the caller owns.
func MarshalPair(header, body Record) []byte {
	e := GetEncoder()
	if header != nil {
		header.Serialize(e)
	}
	if body != nil {
		body.Serialize(e)
	}
	return Detach(e)
}
