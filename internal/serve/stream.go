package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The streaming extension of the binary tensor wire. A step_stream
// response body is a sequence of frames on one chunked HTTP response:
//
//	streamItem := frame(kind=FrameStreamItem, payload = one complete inner frame)
//	streamEnd  := frame(kind=FrameStreamEnd,  payload = items u32 | kind string | message string)
//
// Each item's payload is itself a full frame (header and all) of the
// element type — FrameStepResponse for step_stream — so element decoding
// reuses UnmarshalFrame unchanged and future streaming endpoints can
// carry other kinds without a new wrapper. The end frame is always last:
// an empty kind and message mean the stream completed cleanly after
// `items` elements; otherwise they carry the typed error that cut the
// stream short (errors after streaming begins cannot change the HTTP
// status, which is already on the wire). Bytes after the end frame, a
// missing end frame, and any malformed frame are protocol errors.
//
// The JSON fallback of the same shape is newline-delimited JSON
// (application/x-ndjson): one StreamItemEnvelope object per element,
// then one StreamEndEnvelope terminator.

// NDJSONContentType is the media type of the JSON streaming fallback.
const NDJSONContentType = "application/x-ndjson"

// maxStreamFramePayload bounds a single streamed frame's declared payload
// so a malicious peer cannot make ReadFrame allocate unboundedly; it
// comfortably exceeds any real step response.
const maxStreamFramePayload = 1 << 28

// StreamItemEnvelope is one streamed element on the JSON wire.
type StreamItemEnvelope struct {
	Step *StepResponse `json:"step"`
}

// StreamEndEnvelope terminates a JSON stream. Error/Kind are empty on a
// clean end and carry the typed error otherwise.
type StreamEndEnvelope struct {
	StreamEnd bool   `json:"stream_end"`
	Items     int    `json:"items"`
	Error     string `json:"error,omitempty"`
	Kind      Kind   `json:"kind,omitempty"`
}

// AppendStreamItemFrame wraps v's frame encoding as a FrameStreamItem and
// appends it to buf — exported for sibling transports (internal/serve/grpc)
// that carry the stream wire inside their own message framing, so streamed
// elements stay bit-identical across transports.
func AppendStreamItemFrame(buf []byte, v interface{}) ([]byte, error) {
	return appendStreamItemFrame(buf, v)
}

// AppendStreamEndFrame appends the stream terminator to buf — the
// exported sibling of appendStreamEndFrame, see AppendStreamItemFrame.
func AppendStreamEndFrame(buf []byte, items int, env ErrorEnvelope) []byte {
	return appendStreamEndFrame(buf, items, env)
}

// appendStreamItemFrame wraps v's frame encoding as a FrameStreamItem.
func appendStreamItemFrame(buf []byte, v interface{}) ([]byte, error) {
	start := len(buf)
	buf = append(buf, frameMagic...)
	buf = append(buf, FrameVersion, FrameStreamItem, 0, 0)
	buf = append(buf, 0, 0, 0, 0) // payload length patched below
	inner, err := appendFrame(buf, v)
	if err != nil {
		return nil, err
	}
	buf = inner
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(buf)-start-frameHeaderLen))
	return buf, nil
}

// appendStreamEndFrame encodes the stream terminator.
func appendStreamEndFrame(buf []byte, items int, env ErrorEnvelope) []byte {
	start := len(buf)
	buf = append(buf, frameMagic...)
	buf = append(buf, FrameVersion, FrameStreamEnd, 0, 0)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendU32(buf, uint32(items))
	buf = appendString(buf, string(env.Kind))
	buf = appendString(buf, env.Error)
	binary.LittleEndian.PutUint32(buf[start+8:], uint32(len(buf)-start-frameHeaderLen))
	return buf
}

// DecodeStreamEnd parses a FrameStreamEnd payload (stream consumers —
// pkg/alayaclient — pair it with StreamScanner).
func DecodeStreamEnd(payload []byte) (items int, env ErrorEnvelope, err error) {
	r := frameReader{buf: payload}
	items = int(r.u32())
	env.Kind = Kind(r.str())
	env.Error = r.str()
	if r.err != nil {
		return 0, ErrorEnvelope{}, r.err
	}
	if len(r.buf) != 0 {
		return 0, ErrorEnvelope{}, fmt.Errorf("serve: %d trailing bytes in stream-end payload", len(r.buf))
	}
	return items, env, nil
}

// StreamScanner reads one binary frame at a time off an io.Reader — the
// client side of a step_stream response. It owns a single growable
// buffer: Payload is valid only until the next ReadFrame.
type StreamScanner struct {
	r   io.Reader
	hdr [frameHeaderLen]byte
	buf []byte
}

// NewStreamScanner scans frames from r.
func NewStreamScanner(r io.Reader) *StreamScanner {
	return &StreamScanner{r: r}
}

// ReadFrame reads the next frame, returning its kind and payload (reused
// storage). io.EOF surfaces as-is at a clean frame boundary; a partial
// header or body is io.ErrUnexpectedEOF.
func (s *StreamScanner) ReadFrame() (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("serve: stream frame header truncated: %w", err)
		}
		return 0, nil, err
	}
	if string(s.hdr[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("serve: bad stream frame magic %q", s.hdr[:4])
	}
	if s.hdr[4] != FrameVersion {
		return 0, nil, fmt.Errorf("serve: unsupported stream frame version %d", s.hdr[4])
	}
	if s.hdr[6] != 0 || s.hdr[7] != 0 {
		return 0, nil, fmt.Errorf("serve: nonzero reserved stream frame header bytes %#x %#x", s.hdr[6], s.hdr[7])
	}
	plen := binary.LittleEndian.Uint32(s.hdr[8:])
	if plen > maxStreamFramePayload {
		return 0, nil, fmt.Errorf("serve: stream frame payload %d exceeds %d-byte bound", plen, maxStreamFramePayload)
	}
	if cap(s.buf) < int(plen) {
		s.buf = make([]byte, plen)
	}
	s.buf = s.buf[:plen]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("serve: stream frame payload truncated: %w", io.ErrUnexpectedEOF)
		}
		return 0, nil, err
	}
	return s.hdr[5], s.buf, nil
}
