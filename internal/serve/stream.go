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
// The JSON codec's stream of the same shape is newline-delimited JSON
// (application/x-ndjson): one StreamItemEnvelope object per element,
// then one StreamEndEnvelope terminator.

// NDJSONContentType is the media type of the JSON stream.
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
// appends it to buf. Both transports carry these bytes, so streamed
// elements stay bit-identical across them.
func AppendStreamItemFrame(buf []byte, v interface{}) ([]byte, error) {
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

// AppendStreamEndFrame appends the stream terminator to buf.
func AppendStreamEndFrame(buf []byte, items int, env ErrorEnvelope) []byte {
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

// DecodeStreamEnd parses a FrameStreamEnd payload.
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

// StreamEnd interprets a stream terminator on any wire, after received
// items: a terminator that carries an error returns it as a typed *Error;
// a clean one returns io.EOF when its item count matches and an error
// otherwise.
func StreamEnd(received, items int, env ErrorEnvelope) error {
	if env.Error != "" || env.Kind != "" {
		kind := env.Kind
		if kind == "" {
			kind = KindInternal
		}
		return &Error{Kind: kind, Message: env.Error}
	}
	if items != received {
		return fmt.Errorf("serve: stream terminator claims %d items, received %d", items, received)
	}
	return io.EOF
}

// StreamReader is the client side of a binary step_stream response on
// either wire: frames read off an HTTP body (NewStreamReader, Next) or one
// frame per gRPC message (Message). It yields the items in order and ends
// with StreamEnd's verdict on the terminator. Malformed frames, a missing
// terminator and bytes after a message's frame are protocol errors. Not
// safe for concurrent use.
type StreamReader struct {
	sc    *StreamScanner // nil when frames arrive one per message
	items int
}

// NewStreamReader reads the frames of an HTTP binary step_stream body.
func NewStreamReader(body io.Reader) *StreamReader {
	return &StreamReader{sc: NewStreamScanner(body)}
}

// Next reads the body's next frame: nil with resp filled for an item, or
// the terminator's verdict (io.EOF on a clean end).
func (r *StreamReader) Next(resp *StepResponse) error {
	kind, payload, err := r.sc.ReadFrame()
	if err == io.EOF {
		return fmt.Errorf("serve: stream ended without a stream-end frame")
	}
	if err != nil {
		return err
	}
	return r.decode(kind, payload, resp)
}

// Message decodes the one stream frame a gRPC message carries, in place:
// the payload is read where it lies, and bytes after the frame are an
// error. Results are as for Next.
func (r *StreamReader) Message(msg []byte, resp *StepResponse) error {
	kind, payload, err := splitFrame(msg)
	if err != nil {
		return err
	}
	return r.decode(kind, payload, resp)
}

func (r *StreamReader) decode(kind byte, payload []byte, resp *StepResponse) error {
	switch kind {
	case FrameStreamItem:
		if err := UnmarshalFrame(payload, resp); err != nil {
			return err
		}
		r.items++
		return nil
	case FrameStreamEnd:
		items, env, err := DecodeStreamEnd(payload)
		if err != nil {
			return err
		}
		return StreamEnd(r.items, items, env)
	}
	return fmt.Errorf("serve: unexpected stream frame kind %d", kind)
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
	kind, plen, err := checkHeader(s.hdr[:])
	if err != nil {
		return 0, nil, err
	}
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
	return kind, s.buf, nil
}
