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

// Stream is the client side of one step_stream call, on either wire (see
// Remote and agrpc.Remote). Recv yields the step responses in order, then
// io.EOF once a terminator whose item count matches has ended the call; a
// terminator that carries an error returns that typed error, and every
// other failure is a *Error too. The terminal result repeats on every
// later call and releases the call's connection. Not safe for concurrent
// use.
type Stream struct {
	next  func(*StepResponse) error
	close func() error
	err   error // terminal: io.EOF or the error that ended the stream
}

// NewStream returns the stream whose items next reads — nil with resp
// filled for an item, otherwise the terminal result — and whose call
// close releases.
func NewStream(next func(resp *StepResponse) error, close func() error) *Stream {
	return &Stream{next: next, close: close}
}

// Recv returns the next step's response, or the terminal result.
func (s *Stream) Recv() (*StepResponse, error) {
	if s.err == nil {
		resp := new(StepResponse)
		if s.err = s.next(resp); s.err == nil {
			return resp, nil
		}
		s.release()
	}
	return nil, s.err
}

// Close releases the stream; safe at any point and more than once. It
// reads what is left of the call first, so cancel the stream's ctx to
// abandon it sooner. A Recv after an early Close is unavailable.
func (s *Stream) Close() error {
	if s.err == nil {
		s.err = Unavailablef("stream closed")
	}
	return s.release()
}

func (s *Stream) release() error {
	if s.close == nil {
		return nil
	}
	err := s.close()
	s.close = nil
	return err
}

// StreamReader decodes the frames of a binary step_stream response on
// either wire: off an HTTP body (NewStreamReader, Next) or one frame per
// gRPC message (Message). It yields the items in order, then io.EOF for a
// clean terminator whose item count matches, or the typed error a
// terminator carries. Every protocol fault is an internal *Error: a
// malformed or truncated frame, a miscounting or missing terminator, and
// bytes after the terminator or after a message's frame. Only the body's
// own read errors come back as they are. Not safe for concurrent use.
type StreamReader struct {
	sc    *StreamScanner // nil when frames arrive one per message
	items int
}

// NewStreamReader reads the frames of an HTTP binary step_stream body.
func NewStreamReader(body io.Reader) *StreamReader {
	return &StreamReader{sc: NewStreamScanner(body)}
}

// Next reads the body's next frame: nil with resp filled for an item, or
// the terminator's verdict. A clean end is also the end of the body.
func (r *StreamReader) Next(resp *StepResponse) error {
	kind, payload, err := r.sc.ReadFrame()
	if err == io.EOF {
		return Internalf("serve: stream ended without a stream-end frame")
	}
	if err != nil {
		return err
	}
	if err = r.decode(kind, payload, resp); err != io.EOF {
		return err
	}
	switch _, err = io.ReadFull(r.sc.r, r.sc.hdr[:1]); err {
	case nil:
		return Internalf("serve: bytes after the stream-end frame")
	case io.EOF:
		return io.EOF
	}
	return err
}

// Message decodes the one stream frame a gRPC message carries, in place:
// the payload is read where it lies, and bytes after the frame are an
// error. Results are as for Next.
func (r *StreamReader) Message(msg []byte, resp *StepResponse) error {
	kind, payload, err := splitFrame(msg)
	if err != nil {
		return Internalf("%v", err)
	}
	return r.decode(kind, payload, resp)
}

func (r *StreamReader) decode(kind byte, payload []byte, resp *StepResponse) error {
	switch kind {
	case FrameStreamItem:
		if err := UnmarshalFrame(payload, resp); err != nil {
			return Internalf("serve: bad stream item: %v", err)
		}
		r.items++
		return nil
	case FrameStreamEnd:
		items, env, err := DecodeStreamEnd(payload)
		switch {
		case err != nil:
			return Internalf("%v", err)
		case env.Kind != "":
			return &Error{Kind: env.Kind, Message: env.Error}
		case env.Error != "":
			return &Error{Kind: KindInternal, Message: env.Error}
		case items != r.items:
			return Internalf("serve: stream terminator claims %d items, received %d", items, r.items)
		}
		return io.EOF
	}
	return Internalf("serve: unexpected stream frame kind %d", kind)
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
// storage). io.EOF surfaces as-is at a clean frame boundary, and so do
// the reader's other errors; a malformed, oversized or truncated frame is
// an internal *Error.
func (s *StreamScanner) ReadFrame() (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, Internalf("serve: stream frame header truncated")
		}
		return 0, nil, err
	}
	kind, plen, err := checkHeader(s.hdr[:])
	if err != nil {
		return 0, nil, Internalf("%v", err)
	}
	if plen > maxStreamFramePayload {
		return 0, nil, Internalf("serve: stream frame payload %d exceeds %d-byte bound", plen, maxStreamFramePayload)
	}
	if cap(s.buf) < int(plen) {
		s.buf = make([]byte, plen)
	}
	s.buf = s.buf[:plen]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, Internalf("serve: stream frame payload truncated")
		}
		return 0, nil, err
	}
	return kind, s.buf, nil
}
