// Package pb holds the protobuf wire types of the gRPC transport: the
// messages of the alaya.v1.AlayaDB service (alaya.pb.go, generated) plus
// the hand-written protobuf wire-format runtime they encode through
// (this file).
//
// There is no protoc and no google.golang.org/protobuf anywhere in the
// build: the generated code is emitted by ./gen — a plain Go program
// holding the schema as a descriptor table — and committed, so `go build
// ./...` and CI need no proto toolchain at all. `make proto` re-runs the
// generator (which also emits alaya.proto, the interop contract for
// standard protoc-based clients); a CI job regenerates and fails on
// drift.
//
// The runtime implements exactly the proto3 wire features the schema
// uses: varint (int64/uint64/bool), zigzag varint (sint64), fixed32
// (float), and length-delimited (string/bytes/messages/repeated
// messages). Encoding is canonical proto3 — default-valued fields are
// omitted — and decoding tolerates unknown fields and any field order,
// which is what keeps old clients compatible with newer servers.
package pb

import (
	"fmt"
	"math"
)

// Message is implemented by every generated message.
type Message interface {
	// AppendProto appends the message's proto3 encoding to b.
	AppendProto(b []byte) []byte
	// UnmarshalProto replaces the message with the decoding of data.
	UnmarshalProto(data []byte) error
}

// Wire types of the protobuf encoding.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// --- encoding ---

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendTag(b []byte, num, wt int) []byte {
	return appendVarint(b, uint64(num)<<3|uint64(wt))
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendVarintField emits a varint-typed field, omitting the proto3
// default.
func appendVarintField(b []byte, num int, v uint64) []byte {
	if v == 0 {
		return b
	}
	return appendVarint(appendTag(b, num, wireVarint), v)
}

// appendZigzagField emits a sint64 field, omitting the default.
func appendZigzagField(b []byte, num int, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendVarint(appendTag(b, num, wireVarint), zigzag(v))
}

// appendFloatField emits a float field as fixed32 bits, omitting the
// default. Negative zero is non-default and kept bit-exactly.
func appendFloatField(b []byte, num int, v float32) []byte {
	bits := math.Float32bits(v)
	if bits == 0 {
		return b
	}
	b = appendTag(b, num, wireFixed32)
	return append(b, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
}

// appendBytesField emits a length-delimited field, omitting the default.
func appendBytesField(b []byte, num int, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = appendTag(b, num, wireBytes)
	b = appendVarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendStringField emits a string field, omitting the default.
func appendStringField(b []byte, num int, v string) []byte {
	if len(v) == 0 {
		return b
	}
	b = appendTag(b, num, wireBytes)
	b = appendVarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendMessageField emits an embedded message field. The submessage is
// encoded into b after a placeholder length that is then patched in,
// shifting the tail only when the length's varint needs more than one
// byte — embedded messages here are small, so the common case is one
// memmove-free pass.
func appendMessageField(b []byte, num int, m Message) []byte {
	b = appendTag(b, num, wireBytes)
	b = append(b, 0) // length placeholder
	start := len(b)
	b = m.AppendProto(b)
	n := len(b) - start
	if n < 0x80 {
		b[start-1] = byte(n)
		return b
	}
	var lenbuf [10]byte
	enc := appendVarint(lenbuf[:0], uint64(n))
	b = append(b, enc[1:]...) // grow by the extra length bytes
	copy(b[start+len(enc)-1:], b[start:start+n])
	copy(b[start-1:], enc)
	return b
}

// --- decoding ---

// reader consumes a proto3 payload with sticky errors: after the first
// failure every read returns zero values and the error surfaces once at
// the end of UnmarshalProto.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("pb: "+format, args...)
		r.buf = nil
	}
}

// varint reads one base-128 varint.
func (r *reader) varint() uint64 {
	var v uint64
	for i := 0; i < len(r.buf); i++ {
		c := r.buf[i]
		if i == 9 && c > 1 {
			r.fail("varint overflows 64 bits")
			return 0
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			r.buf = r.buf[i+1:]
			return v
		}
	}
	r.fail("truncated varint")
	return 0
}

// tag reads the next field tag; ok is false at a clean end of payload.
func (r *reader) tag() (num, wt int, ok bool) {
	if r.err != nil || len(r.buf) == 0 {
		return 0, 0, false
	}
	v := r.varint()
	if r.err != nil {
		return 0, 0, false
	}
	num, wt = int(v>>3), int(v&7)
	if num <= 0 {
		r.fail("invalid field number %d", num)
		return 0, 0, false
	}
	return num, wt, true
}

// bytes reads one length-delimited payload, aliasing the input buffer.
func (r *reader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// fixed32 reads four little-endian bytes.
func (r *reader) fixed32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.fail("truncated fixed32")
		return 0
	}
	v := uint32(r.buf[0]) | uint32(r.buf[1])<<8 | uint32(r.buf[2])<<16 | uint32(r.buf[3])<<24
	r.buf = r.buf[4:]
	return v
}

// message reads one length-delimited field and decodes it into m.
func (r *reader) message(m Message) {
	sub := r.bytes()
	if r.err != nil {
		return
	}
	if err := m.UnmarshalProto(sub); err != nil && r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// skip discards one field of the given wire type — unknown fields are
// tolerated, which is what lets the schema grow without breaking old
// binaries.
func (r *reader) skip(wt int) {
	switch wt {
	case wireVarint:
		r.varint()
	case wireFixed64:
		if len(r.buf) < 8 {
			r.fail("truncated fixed64")
			return
		}
		r.buf = r.buf[8:]
	case wireBytes:
		r.bytes()
	case wireFixed32:
		r.fixed32()
	default:
		r.fail("unsupported wire type %d", wt)
	}
}

// FrameOf decodes an encoded FrameResponse as UnmarshalProto does but
// returns its frame aliasing data instead of copying it out: a tensor
// response is decoded straight from the received message buffer.
func FrameOf(data []byte) ([]byte, error) {
	var frame []byte
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		if num == 1 && wt == wireBytes {
			frame = r.bytes()
		} else {
			r.skip(wt)
		}
	}
	return frame, r.err
}
