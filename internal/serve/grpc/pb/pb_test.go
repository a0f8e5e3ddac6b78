package pb

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip encodes and decodes every message with non-default
// values, including the cases the wire format treats specially: negative
// sint64 (zigzag), negative-zero float, and large repeated payloads that
// push embedded-message lengths past one varint byte.
func TestRoundTrip(t *testing.T) {
	manyTokens := make([]Token, 40)
	for i := range manyTokens {
		manyTokens[i] = Token{Topic: int64(i - 20), Payload: int64(i * 1000), Salience: float32(i) / 7}
	}
	msgs := []Message{
		&Token{Topic: -5, Payload: 1 << 40, Salience: float32(math.Copysign(0, -1))},
		&CreateSessionRequest{Seed: math.MaxUint64, Tokens: manyTokens},
		&CreateSessionResponse{SessionID: 7, Reused: 500},
		&SessionRequest{SessionID: math.MaxInt64},
		&PrefillResponse{Prefilled: 500, ContextLen: 500},
		&FrameRequest{SessionID: 12, Frame: bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 100)},
		&FrameResponse{Frame: []byte{1}},
		&StoreResponse{StoredTokens: 503},
		&CloseSessionResponse{Status: "closed"},
		&HealthzRequest{},
		&HealthzResponse{Status: "ok", OpenSessions: 2},
		&StatsRequest{},
		&StatsResponse{StatsJSON: []byte(`{"contexts":1}`)},
	}
	for _, in := range msgs {
		data := in.AppendProto(nil)
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(Message)
		if err := out.UnmarshalProto(data); err != nil {
			t.Fatalf("%T: unmarshal: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T round trip:\n in: %+v\nout: %+v", in, in, out)
		}
		// Decoding must replace, not merge: a second unmarshal into the
		// same value gives the same result.
		if err := out.UnmarshalProto(data); err != nil {
			t.Fatalf("%T: re-unmarshal: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T re-unmarshal diverged: %+v", in, out)
		}
	}
}

// TestCanonicalEncoding pins the exact bytes of a representative
// message, so encoder changes that would break interop with standard
// protobuf stacks show up as a diff here.
func TestCanonicalEncoding(t *testing.T) {
	m := &CreateSessionResponse{SessionID: 300, Reused: 1}
	want := []byte{
		0x08, 0xAC, 0x02, // field 1 varint 300
		0x10, 0x01, // field 2 varint 1
	}
	if got := m.AppendProto(nil); !bytes.Equal(got, want) {
		t.Errorf("encoding = %x, want %x", got, want)
	}

	// Zigzag: -1 encodes as 1.
	tok := &Token{Topic: -1}
	if got := tok.AppendProto(nil); !bytes.Equal(got, []byte{0x08, 0x01}) {
		t.Errorf("sint64 -1 = %x", got)
	}

	// proto3 default omission: zero messages encode to nothing.
	for _, m := range []Message{&Token{}, &SessionRequest{}, &HealthzRequest{}, &StatsResponse{}} {
		if got := m.AppendProto(nil); len(got) != 0 {
			t.Errorf("%T zero value encodes %d bytes: %x", m, len(got), got)
		}
	}
}

// TestUnknownFieldsSkipped feeds a payload holding fields this schema
// version does not know, of every wire type — the forward-compatibility
// contract.
func TestUnknownFieldsSkipped(t *testing.T) {
	known := (&SessionRequest{SessionID: 42}).AppendProto(nil)
	payload := append([]byte{}, known...)
	payload = appendTag(payload, 99, wireVarint)
	payload = appendVarint(payload, 1234)
	payload = appendTag(payload, 100, wireBytes)
	payload = appendVarint(payload, 3)
	payload = append(payload, "abc"...)
	payload = appendTag(payload, 101, wireFixed32)
	payload = append(payload, 1, 2, 3, 4)
	payload = appendTag(payload, 102, wireFixed64)
	payload = append(payload, 1, 2, 3, 4, 5, 6, 7, 8)

	var m SessionRequest
	if err := m.UnmarshalProto(payload); err != nil {
		t.Fatalf("unknown fields rejected: %v", err)
	}
	if m.SessionID != 42 {
		t.Errorf("session_id = %d", m.SessionID)
	}

	// A known field number at an unexpected wire type is skipped, not
	// misparsed.
	wrong := appendTag(nil, 1, wireBytes)
	wrong = appendVarint(wrong, 2)
	wrong = append(wrong, 0xFF, 0xFF)
	if err := m.UnmarshalProto(wrong); err != nil || m.SessionID != 0 {
		t.Errorf("wrong wire type: err=%v session_id=%d", err, m.SessionID)
	}
}

// TestMalformedPayloads sweeps decode failure modes; every one must
// error rather than panic or silently truncate.
func TestMalformedPayloads(t *testing.T) {
	cases := map[string][]byte{
		"truncated varint":       {0x08, 0x80},
		"varint overflow":        {0x08, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F},
		"length past end":        {0x12, 0x05, 0x01},
		"field number zero":      {0x00, 0x01},
		"wire type 3 (group)":    {0x0B},
		"truncated fixed32":      append(appendTag(nil, 9, wireFixed32), 1, 2),
		"truncated fixed64 skip": append(appendTag(nil, 9, wireFixed64), 1, 2, 3),
	}
	for name, data := range cases {
		var m FrameRequest
		if err := m.UnmarshalProto(data); err == nil {
			t.Errorf("%s: decoded without error into %+v", name, m)
		}
	}
}

// TestEmbeddedMessageLengthPatch exercises appendMessageField's
// multi-byte length path directly: an embedded message longer than 127
// bytes must keep its payload intact after the tail shift.
func TestEmbeddedMessageLengthPatch(t *testing.T) {
	frame := make([]byte, 1000)
	for i := range frame {
		frame[i] = byte(i)
	}
	// FrameRequest{Frame: frame} nested inside nothing exercises only the
	// single-byte path, so wrap it: encode a FrameResponse holding the
	// FrameRequest's encoding as its frame, via appendMessageField.
	req := &FrameRequest{SessionID: 5, Frame: frame}
	b := appendMessageField(nil, 1, req)

	var r reader
	r.buf = b
	num, wt, ok := r.tag()
	if !ok || num != 1 || wt != wireBytes {
		t.Fatalf("tag = %d/%d/%v", num, wt, ok)
	}
	var got FrameRequest
	if err := got.UnmarshalProto(r.bytes()); err != nil {
		t.Fatal(err)
	}
	if got.SessionID != 5 || !bytes.Equal(got.Frame, frame) {
		t.Errorf("patched embed corrupted: id=%d frame match=%v", got.SessionID, bytes.Equal(got.Frame, frame))
	}
}

// TestZigzag checks the sint64 transform over the boundary values.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	if zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Errorf("zigzag mapping wrong: %d %d", zigzag(-1), zigzag(1))
	}
}
