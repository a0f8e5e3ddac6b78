package serve

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestStreamFrameRoundTrip encodes a stream of item frames plus a clean
// terminator and scans it back, checking kinds, payload decode, and the
// EOF behaviour at the frame boundary.
func TestStreamFrameRoundTrip(t *testing.T) {
	steps := []*StepResponse{
		{ContextLen: 101, Layers: [][]AttentionResponse{{{Plan: "dipr", Retrieved: 3, Attended: 7, Output: []float32{1, 2, 3}}}}},
		{ContextLen: 102, Layers: [][]AttentionResponse{{{Plan: "full", Retrieved: 0, Attended: 9, Output: []float32{4, 5, 6}}}}},
	}
	var buf []byte
	var err error
	for _, s := range steps {
		if buf, err = AppendStreamItemFrame(buf, s); err != nil {
			t.Fatal(err)
		}
	}
	buf = AppendStreamEndFrame(buf, len(steps), ErrorEnvelope{})

	sc := NewStreamScanner(bytes.NewReader(buf))
	for i, want := range steps {
		kind, payload, err := sc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameStreamItem {
			t.Fatalf("frame %d kind = %d", i, kind)
		}
		var got StepResponse
		if err := UnmarshalFrame(payload, &got); err != nil {
			t.Fatal(err)
		}
		if derr := diffStep("round trip", &got, want); derr != nil {
			t.Fatal(derr)
		}
	}
	kind, payload, err := sc.ReadFrame()
	if err != nil || kind != FrameStreamEnd {
		t.Fatalf("end frame: kind %d, err %v", kind, err)
	}
	items, env, err := DecodeStreamEnd(payload)
	if err != nil || items != len(steps) || env.Error != "" || env.Kind != "" {
		t.Fatalf("stream end = %d, %+v, %v", items, env, err)
	}
	if _, _, err := sc.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestStreamEndCarriesError: a terminator can carry the typed error that
// cut the stream short.
func TestStreamEndCarriesError(t *testing.T) {
	buf := AppendStreamEndFrame(nil, 2, ErrorEnvelope{Error: "session evicted", Kind: KindNotFound})
	sc := NewStreamScanner(bytes.NewReader(buf))
	kind, payload, err := sc.ReadFrame()
	if err != nil || kind != FrameStreamEnd {
		t.Fatalf("kind %d, err %v", kind, err)
	}
	items, env, err := DecodeStreamEnd(payload)
	if err != nil {
		t.Fatal(err)
	}
	if items != 2 || env.Kind != KindNotFound || env.Error != "session evicted" {
		t.Fatalf("decoded %d, %+v", items, env)
	}
}

// TestStreamScannerMalformedInput sweeps the protocol-error paths: bad
// magic, wrong version, oversized payload declaration, truncated header
// and truncated payload.
func TestStreamScannerMalformedInput(t *testing.T) {
	good, err := AppendStreamItemFrame(nil, &StepResponse{ContextLen: 1, Layers: [][]AttentionResponse{{{Output: []float32{1}}}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", append([]byte("XXXX"), good[4:]...), "magic"},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(), "version"},
		{"oversized payload", func() []byte {
			b := append([]byte(nil), good...)
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}(), "bound"},
		{"truncated header", good[:6], "header truncated"},
		{"truncated payload", good[:len(good)-3], "payload truncated"},
	}
	for _, tc := range cases {
		sc := NewStreamScanner(bytes.NewReader(tc.data))
		_, _, err := sc.ReadFrame()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// Trailing bytes after a stream-end payload are a protocol error.
	end := AppendStreamEndFrame(nil, 1, ErrorEnvelope{})
	sc := NewStreamScanner(bytes.NewReader(end))
	_, payload, err := sc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeStreamEnd(append(payload, 0xAB)); err == nil {
		t.Error("trailing stream-end bytes accepted")
	}
	if _, _, err := DecodeStreamEnd(payload[:2]); err == nil {
		t.Error("truncated stream-end payload accepted")
	}
}
