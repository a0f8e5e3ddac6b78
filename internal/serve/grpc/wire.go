package grpc

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// errTooLarge marks a message rejected by the receive-size bound, so the
// server can answer with the too-large kind (ResourceExhausted) rather
// than a generic bad request — the gRPC analog of HTTP 413.
var errTooLarge = errors.New("message exceeds size bound")

// errCompressed marks a message with the compressed flag set, which
// neither peer negotiates.
var errCompressed = errors.New("compressed message not supported")

// ContentType is the media type both peers send; ContentTypeBare is also
// accepted on requests, as the gRPC spec requires.
const (
	ContentType     = "application/grpc+proto"
	ContentTypeBare = "application/grpc"
)

// Wire metadata keys in net/http canonical form (HTTP/2 lowercases them
// on the wire). KindTrailer is the transport extension carrying the
// exact serve.Kind alongside the lossy canonical code.
const (
	statusTrailer  = "Grpc-Status"
	messageTrailer = "Grpc-Message"
	timeoutHeader  = "Grpc-Timeout"
	// KindTrailer carries the exact serve.Kind of a non-OK status.
	KindTrailer = "Alaya-Kind"
)

// DefaultMaxRecvBytes bounds one decoded gRPC message on both peers.
// Matches the spirit of serve.DefaultMaxBodyBytes: large enough for any
// real step batch, small enough that a crafted length prefix cannot
// force an absurd allocation.
const DefaultMaxRecvBytes int64 = 64 << 20

// msgBufPool recycles message encode/decode buffers across RPCs.
var msgBufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getMsgBuf() []byte  { return (*msgBufPool.Get().(*[]byte))[:0] }
func putMsgBuf(b []byte) { msgBufPool.Put(&b) }

// marshalMessage encodes one length-prefixed gRPC message (uncompressed
// flag byte + 4-byte big-endian length + proto payload) into a pooled
// buffer the caller must return via putMsgBuf.
func marshalMessage(m interface {
	AppendProto(b []byte) []byte
}) []byte {
	buf := getMsgBuf()
	buf = append(buf, 0, 0, 0, 0, 0)
	buf = m.AppendProto(buf)
	n := len(buf) - 5
	buf[1], buf[2], buf[3], buf[4] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return buf
}

// readMessage reads one length-prefixed message, appending its payload
// to buf (pass a pooled slice) and returning the extended slice. A clean
// EOF before the prefix returns io.EOF; a partial prefix or body is
// io.ErrUnexpectedEOF. Compressed messages and payloads over max are
// rejected.
func readMessage(r io.Reader, buf []byte, max int64) ([]byte, error) {
	var prefix [5]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("grpc: truncated message prefix: %w", err)
		}
		return nil, err
	}
	if prefix[0] != 0 {
		return nil, fmt.Errorf("grpc: message flag %d: %w", prefix[0], errCompressed)
	}
	n := int64(prefix[1])<<24 | int64(prefix[2])<<16 | int64(prefix[3])<<8 | int64(prefix[4])
	if n > max {
		return nil, fmt.Errorf("grpc: message length %d exceeds %d-byte bound: %w", n, max, errTooLarge)
	}
	start := len(buf)
	if int64(cap(buf)-start) < n {
		grown := make([]byte, start, start+int(n))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+int(n)]
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("grpc: truncated message body: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return buf, nil
}

// isGRPCContentType accepts application/grpc with an optional +proto (or
// other) suffix and optional parameters.
func isGRPCContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	return ct == ContentTypeBare || strings.HasPrefix(ct, ContentTypeBare+"+")
}

// encodeGRPCMessage percent-encodes a status message per the gRPC spec:
// bytes outside printable ASCII, plus '%', become %XX; spaces survive.
func encodeGRPCMessage(msg string) string {
	if !strings.ContainsFunc(msg, func(r rune) bool { return r < ' ' || r > '~' || r == '%' }) {
		return msg
	}
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c < ' ' || c > '~' || c == '%' {
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xF])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// decodeGRPCMessage reverses encodeGRPCMessage, passing malformed
// escapes through untouched as the spec directs.
func decodeGRPCMessage(msg string) string {
	if !strings.ContainsRune(msg, '%') {
		return msg
	}
	var b strings.Builder
	for i := 0; i < len(msg); i++ {
		if msg[i] == '%' && i+2 < len(msg) {
			hi, err1 := strconv.ParseUint(msg[i+1:i+3], 16, 8)
			if err1 == nil {
				b.WriteByte(byte(hi))
				i += 2
				continue
			}
		}
		b.WriteByte(msg[i])
	}
	return b.String()
}

// encodeTimeout renders a context deadline as a grpc-timeout value.
func encodeTimeout(d time.Duration) string {
	if d <= 0 {
		return "0m"
	}
	if ms := d.Milliseconds(); ms < 1e8 {
		if ms == 0 {
			ms = 1
		}
		return strconv.FormatInt(ms, 10) + "m"
	}
	return strconv.FormatInt(int64(d.Seconds()), 10) + "S"
}

// decodeTimeout parses a grpc-timeout header value.
func decodeTimeout(s string) (time.Duration, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("grpc: malformed timeout %q", s)
	}
	n, err := strconv.ParseInt(s[:len(s)-1], 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("grpc: malformed timeout %q", s)
	}
	var unit time.Duration
	switch s[len(s)-1] {
	case 'n':
		unit = time.Nanosecond
	case 'u':
		unit = time.Microsecond
	case 'm':
		unit = time.Millisecond
	case 'S':
		unit = time.Second
	case 'M':
		unit = time.Minute
	case 'H':
		unit = time.Hour
	default:
		return 0, fmt.Errorf("grpc: malformed timeout unit %q", s)
	}
	return time.Duration(n) * unit, nil
}
