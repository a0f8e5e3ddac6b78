package grpc

import (
	"bytes"
	"testing"

	"repro/internal/serve/grpc/pb"
)

// FuzzReadMessage feeds arbitrary bytes and size bounds to the
// length-prefixed message reader every gRPC body goes through. It must
// never panic; a message it returns extends the caller's buffer by exactly
// the prefix's length, at most max, with the bytes that followed the
// prefix, and leaves the buffer's earlier bytes alone.
func FuzzReadMessage(f *testing.F) {
	msg := marshalMessage(&pb.FrameRequest{SessionID: 7, Frame: []byte("frame")})
	f.Add(bytes.Clone(msg), uint16(64), uint8(0))
	f.Add(bytes.Clone(msg), uint16(3), uint8(2))       // over the bound
	f.Add(bytes.Clone(msg[:7]), uint16(64), uint8(1))  // truncated body
	f.Add(bytes.Clone(msg[:3]), uint16(64), uint8(0))  // truncated prefix
	f.Add([]byte{1, 0, 0, 0, 0}, uint16(64), uint8(0)) // compressed flag
	f.Add([]byte{0, 0, 0, 0, 0}, uint16(0), uint8(3))  // empty message
	putMsgBuf(msg)
	f.Fuzz(func(t *testing.T, data []byte, max uint16, held uint8) {
		buf := bytes.Repeat([]byte{0xA5}, int(held%8))
		out, err := readMessage(bytes.NewReader(data), buf, int64(max))
		if err != nil {
			if out != nil {
				t.Fatalf("error %v with %d bytes returned", err, len(out))
			}
			return
		}
		if len(data) < 5 {
			t.Fatalf("message returned from %d bytes, shorter than a prefix", len(data))
		}
		n := int(data[1])<<24 | int(data[2])<<16 | int(data[3])<<8 | int(data[4])
		if got := len(out) - len(buf); got != n || n > int(max) {
			t.Fatalf("payload of %d bytes for prefix length %d, bound %d", got, n, max)
		}
		if !bytes.Equal(out[:len(buf)], buf) || !bytes.Equal(out[len(buf):], data[5:5+n]) {
			t.Fatalf("returned %x, want %x then %x", out, buf, data[5:5+n])
		}
	})
}
