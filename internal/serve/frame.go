package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
)

// The binary tensor wire: `application/x-alaya-frame`.
//
// The tensor-heavy endpoints (step, step_stream) speak an alternative
// little-endian binary codec negotiated by Content-Type
// (request bodies) and Accept (response bodies); JSON remains the default.
// A frame is one length-delimited message:
//
//	offset  size  field
//	0       4     magic "ALYF"
//	4       1     version (2)
//	5       1     kind (Frame* constants)
//	6       2     reserved (0)
//	8       4     payload length (bytes after this header)
//	12      …     payload
//
// Payloads are packed little-endian with no padding. Scalars: u16/u32 are
// unsigned ints, f32/f64 are IEEE-754 bits (math.Float32bits /
// math.Float64bits — codecs never reformat a float, which is what makes
// binary and JSON byte-identical in value space). Strings are u16 length
// + UTF-8 bytes. Composite layouts:
//
//	token     := topic u32 | payload u32 | salience f32
//	vec(d)    := d × f32
//	attnResp  := plan string | retrieved u32 | attended u32 | lse f64 | dim u32 | vec(dim)
//	stepReq   := token | flags u8 | layers u32 | heads u32 | dim u32 | layers × heads × vec(dim)
//	stepResp  := ctxlen u32 | layers u32 | layers × (heads u32 | heads × attnResp)
//	stepsReq  := count u32 | count × stepReq
//
// Kinds: 5 stepReq, 6 stepResp, 7 stepsReq, 9 stream item, 10 stream end
// (stream.go). Kinds 1–4 and 8 (the per-head and per-layer attention
// calls and the buffered steps response) are retired and never reused.
//
// stepReq flags: bit 0 = attend-only (score the queries without ingesting
// the token — attention over the context as it stands, and the
// fixed-span shard leg of a routed decode step); higher bits reserved
// (must be 0). A stepReq's geometry is canonical: heads is 0 when layers
// is, and dim is 0 when heads is.
//
// Version history: v1 had no lse field in attnResp and no flags byte in
// stepReq; v2 (this codec) added both for the cluster router's partial
// merge. Both peers of a deployment speak one version — decoders reject
// any other.
//
// Every frame decodes to one message that re-encodes to the same bytes:
// decoders reject nonzero reserved header bytes, unknown flags and
// non-canonical geometry.
//
// Geometry fields are authoritative: decoders allocate from them only
// after checking they fit in the remaining payload, so a crafted frame
// cannot force a huge allocation from a tiny body.

// FrameContentType is the negotiated media type of the binary tensor wire.
const FrameContentType = "application/x-alaya-frame"

// FrameVersion is the wire version this codec speaks.
const FrameVersion = 2

const frameMagic = "ALYF"

// Frame kinds. The values are wire bytes: retired kinds (1–4, 8) leave
// gaps rather than renumbering what survives.
const (
	FrameStepRequest  byte = 5
	FrameStepResponse byte = 6
	FrameStepsRequest byte = 7
	// FrameStreamItem wraps one complete inner frame as an element of a
	// step_stream response; FrameStreamEnd terminates the stream. See
	// stream.go for the streaming layouts.
	FrameStreamItem byte = 9
	FrameStreamEnd  byte = 10
)

const frameHeaderLen = 12

// frameBufPool recycles encode buffers so the binary hot path allocates
// only the returned frame (and nothing when the caller round-trips the
// slice back through putFrameBuf).
var frameBufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getFrameBuf() []byte  { return (*frameBufPool.Get().(*[]byte))[:0] }
func putFrameBuf(b []byte) { frameBufPool.Put(&b) }

// MarshalFrame encodes one wire message as a binary frame. Supported
// types: *StepRequest, *StepResponse and *StepsRequest. The returned slice
// is freshly allocated and owned by the caller.
func MarshalFrame(v interface{}) ([]byte, error) {
	buf := getFrameBuf()
	out, err := appendFrame(buf, v)
	if err != nil {
		putFrameBuf(buf)
		return nil, err
	}
	cp := make([]byte, len(out))
	copy(cp, out)
	putFrameBuf(out) // recycle the grown buffer, not the stale original
	return cp, nil
}

// appendFrame appends the full frame (header + payload) for v to buf.
func appendFrame(buf []byte, v interface{}) ([]byte, error) {
	var kind byte
	start := len(buf)
	buf = append(buf, frameMagic...)
	buf = append(buf, FrameVersion, 0, 0, 0) // kind patched below, reserved
	buf = append(buf, 0, 0, 0, 0)            // payload length patched below
	switch m := v.(type) {
	case *StepRequest:
		kind = FrameStepRequest
		var err error
		if buf, err = appendStepReq(buf, m); err != nil {
			return nil, err
		}
	case *StepResponse:
		kind = FrameStepResponse
		buf = appendStepResp(buf, m)
	case *StepsRequest:
		kind = FrameStepsRequest
		buf = appendU32(buf, uint32(len(m.Steps)))
		for i := range m.Steps {
			var err error
			if buf, err = appendStepReq(buf, &m.Steps[i]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("serve: no frame encoding for %T", v)
	}
	buf[start+5] = kind
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(buf)-start-frameHeaderLen))
	return buf, nil
}

// UnmarshalFrame decodes a binary frame into v, which must be a pointer of
// the same set of types MarshalFrame accepts and match the frame's kind.
// Trailing bytes, truncation, geometry that does not fit the payload, and
// version or kind mismatches are all errors.
func UnmarshalFrame(data []byte, v interface{}) error {
	if len(data) < frameHeaderLen {
		return fmt.Errorf("serve: frame truncated: %d bytes", len(data))
	}
	if string(data[:4]) != frameMagic {
		return fmt.Errorf("serve: bad frame magic %q", data[:4])
	}
	if data[4] != FrameVersion {
		return fmt.Errorf("serve: unsupported frame version %d", data[4])
	}
	if data[6] != 0 || data[7] != 0 {
		return fmt.Errorf("serve: nonzero reserved frame header bytes %#x %#x", data[6], data[7])
	}
	kind := data[5]
	plen := binary.LittleEndian.Uint32(data[8:])
	if uint64(plen) != uint64(len(data)-frameHeaderLen) {
		return fmt.Errorf("serve: frame payload length %d, body holds %d", plen, len(data)-frameHeaderLen)
	}
	r := frameReader{buf: data[frameHeaderLen:]}
	var want byte
	switch m := v.(type) {
	case *StepRequest:
		want = FrameStepRequest
		if kind == want {
			r.stepReq(m)
		}
	case *StepResponse:
		want = FrameStepResponse
		if kind == want {
			r.stepResp(m)
		}
	case *StepsRequest:
		want = FrameStepsRequest
		if kind == want {
			n := r.count(stepReqMinLen)
			m.Steps = make([]StepRequest, n)
			for i := 0; i < n && r.err == nil; i++ {
				r.stepReq(&m.Steps[i])
			}
		}
	default:
		return fmt.Errorf("serve: no frame decoding for %T", v)
	}
	if kind != want {
		return fmt.Errorf("serve: frame kind %d, want %d for %T", kind, want, v)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("serve: %d trailing bytes after frame payload", len(r.buf))
	}
	return nil
}

// --- encoding helpers ---

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v), byte(v>>8))
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF32(buf []byte, v float32) []byte {
	return appendU32(buf, math.Float32bits(v))
}

func appendF64(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	buf = appendU32(buf, uint32(bits))
	return appendU32(buf, uint32(bits>>32))
}

func appendString(buf []byte, s string) []byte {
	buf = appendU16(buf, uint16(len(s)))
	return append(buf, s...)
}

// appendVec writes dim u32 then the raw IEEE-754 bits.
func appendVec(buf []byte, v []float32) []byte {
	buf = appendU32(buf, uint32(len(v)))
	for _, f := range v {
		buf = appendF32(buf, f)
	}
	return buf
}

func appendToken(buf []byte, t model.Token) []byte {
	buf = appendU32(buf, uint32(t.Topic))
	buf = appendU32(buf, uint32(t.Payload))
	return appendF32(buf, t.Salience)
}

func appendAttnResp(buf []byte, m *AttentionResponse) []byte {
	buf = appendString(buf, m.Plan)
	buf = appendU32(buf, uint32(m.Retrieved))
	buf = appendU32(buf, uint32(m.Attended))
	buf = appendF64(buf, m.LSE)
	return appendVec(buf, m.Output)
}

// StepGeometry pins the shape of a step's [layer][head] query grid: every
// layer the same head count, every query the same dimension. The binary
// layout depends on it, so MarshalFrame rejects a ragged grid with this
// error; a cluster router checks a whole batch with it before any step
// runs.
func StepGeometry(qs [][][]float32) (layers, heads, dim int, err error) {
	layers = len(qs)
	for l, row := range qs {
		if l == 0 {
			heads = len(row)
		} else if len(row) != heads {
			return 0, 0, 0, fmt.Errorf("serve: ragged step geometry: layer %d has %d heads, layer 0 has %d", l, len(row), heads)
		}
		for h, q := range row {
			if l == 0 && h == 0 {
				dim = len(q)
			} else if len(q) != dim {
				return 0, 0, 0, fmt.Errorf("serve: ragged query dims %d vs %d", len(q), dim)
			}
		}
	}
	return layers, heads, dim, nil
}

func appendStepReq(buf []byte, m *StepRequest) ([]byte, error) {
	layers, heads, dim, err := StepGeometry(m.Queries)
	if err != nil {
		return nil, err
	}
	buf = appendToken(buf, m.Token)
	var flags byte
	if m.AttendOnly {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendU32(buf, uint32(layers))
	buf = appendU32(buf, uint32(heads))
	buf = appendU32(buf, uint32(dim))
	for _, row := range m.Queries {
		for _, q := range row {
			for _, f := range q {
				buf = appendF32(buf, f)
			}
		}
	}
	return buf, nil
}

func appendStepResp(buf []byte, m *StepResponse) []byte {
	buf = appendU32(buf, uint32(m.ContextLen))
	buf = appendU32(buf, uint32(len(m.Layers)))
	for _, row := range m.Layers {
		buf = appendU32(buf, uint32(len(row)))
		for h := range row {
			buf = appendAttnResp(buf, &row[h])
		}
	}
	return buf
}

// --- decoding ---

// Minimum encoded sizes, used to bound count fields before allocating.
const (
	attnRespMinLen = 2 + 4 + 4 + 8 + 4 // empty plan, lse, empty output
	stepReqMinLen  = 12 + 1 + 4 + 4 + 4
)

// frameReader consumes a payload with sticky errors: after the first
// failure every read returns zero values and the error surfaces once at
// the end.
type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("serve: "+format, args...)
		r.buf = nil
	}
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail("frame payload truncated: need %d bytes, have %d", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *frameReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *frameReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *frameReader) f32() float32 {
	return math.Float32frombits(r.u32())
}

func (r *frameReader) f64() float64 {
	lo := uint64(r.u32())
	hi := uint64(r.u32())
	return math.Float64frombits(hi<<32 | lo)
}

func (r *frameReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) str() string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads a u32 element count and rejects values that could not fit in
// the remaining payload at minLen bytes per element, so decode allocation
// is always bounded by the actual body size.
func (r *frameReader) count(minLen int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*minLen > len(r.buf) {
		r.fail("frame count %d exceeds payload (%d bytes left)", n, len(r.buf))
		return 0
	}
	return n
}

func (r *frameReader) vec() []float32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = r.f32()
	}
	return out
}

func (r *frameReader) token() model.Token {
	return model.Token{
		Topic:    int(int32(r.u32())),
		Payload:  int(int32(r.u32())),
		Salience: r.f32(),
	}
}

func (r *frameReader) attnResp(m *AttentionResponse) {
	m.Plan = r.str()
	m.Retrieved = int(r.u32())
	m.Attended = int(r.u32())
	m.LSE = r.f64()
	m.Output = r.vec()
}

// grid reads layers×heads×dim floats laid out row-major, returning
// [layers][heads][]float32.
func (r *frameReader) grid(layers, heads, dim int) [][][]float32 {
	if r.err != nil {
		return nil
	}
	// Bound each axis by the remaining payload before multiplying, so a
	// crafted frame cannot overflow the total or force a huge allocation.
	lim := len(r.buf)/4 + 1
	if layers > lim || heads > lim || dim > lim {
		r.fail("frame geometry %dx%dx%d exceeds payload (%d bytes left)", layers, heads, dim, len(r.buf))
		return nil
	}
	// The layers×heads bound holds even at dim == 0: every decoded vector
	// slot must be paid for by payload bytes, or a zero-dim frame could
	// demand billions of slice headers from a tiny body. Both bounds
	// divide rather than multiply, so neither overflows a 32-bit int.
	if (heads > 0 && layers > lim/heads) || (dim > 0 && layers*heads > len(r.buf)/4/dim) {
		r.fail("frame geometry %dx%dx%d exceeds payload (%d bytes left)", layers, heads, dim, len(r.buf))
		return nil
	}
	total := layers * heads * dim
	out := make([][][]float32, layers)
	flat := make([]float32, total)
	for i := range flat {
		flat[i] = r.f32()
	}
	for l := 0; l < layers; l++ {
		out[l] = make([][]float32, heads)
		for h := 0; h < heads; h++ {
			off := (l*heads + h) * dim
			out[l][h] = flat[off : off+dim : off+dim]
		}
	}
	return out
}

func (r *frameReader) stepReq(m *StepRequest) {
	m.Token = r.token()
	flags := r.u8()
	if flags&^1 != 0 {
		r.fail("unknown stepReq flags %#x", flags)
		return
	}
	m.AttendOnly = flags&1 != 0
	layers := int(r.u32())
	heads := int(r.u32())
	dim := int(r.u32())
	if r.err != nil {
		return
	}
	if layers < 0 || heads < 0 || dim < 0 {
		r.fail("negative geometry %dx%dx%d", layers, heads, dim)
		return
	}
	if (layers == 0 && heads != 0) || (heads == 0 && dim != 0) {
		r.fail("non-canonical empty geometry %dx%dx%d", layers, heads, dim)
		return
	}
	m.Queries = r.grid(layers, heads, dim)
}

func (r *frameReader) stepResp(m *StepResponse) {
	m.ContextLen = int(r.u32())
	layers := r.count(4)
	if r.err != nil {
		return
	}
	m.Layers = make([][]AttentionResponse, layers)
	for l := 0; l < layers && r.err == nil; l++ {
		heads := r.count(attnRespMinLen)
		if r.err != nil {
			return
		}
		m.Layers[l] = make([]AttentionResponse, heads)
		for h := 0; h < heads && r.err == nil; h++ {
			r.attnResp(&m.Layers[l][h])
		}
	}
}
