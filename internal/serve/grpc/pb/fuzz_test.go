package pb

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRoundTrip feeds arbitrary bytes to the two request decoders a peer
// reaches first, CreateSessionRequest and FrameRequest. Neither may panic,
// and whatever decodes must survive encode then decode as an equal
// message: the encoder writes every field the decoder kept.
func FuzzRoundTrip(f *testing.F) {
	f.Add((&CreateSessionRequest{Seed: 9, Tokens: []Token{{Topic: -3, Payload: 5, Salience: 0.5}, {}}, SpanLo: 2, SpanHi: 40}).AppendProto(nil))
	f.Add((&FrameRequest{SessionID: -1, Frame: []byte{0xAB, 0, 0x7F}}).AppendProto(nil))
	f.Add([]byte{0x12, 0x05, 0x1d, 0x00, 0x00, 0xc0, 0x7f}) // one token, NaN salience
	f.Add([]byte{0x12, 0x00, 0x12, 0x02, 0x08})             // empty token, then a truncated one
	f.Add([]byte{0x12, 0x80})                               // truncated length
	f.Fuzz(func(t *testing.T, data []byte) {
		var cs, cs2 CreateSessionRequest
		if cs.UnmarshalProto(data) == nil {
			if err := cs2.UnmarshalProto(cs.AppendProto(nil)); err != nil {
				t.Fatalf("re-decode of %+v: %v", cs, err)
			}
			if !equalCreateSession(&cs, &cs2) {
				t.Fatalf("round trip changed %+v into %+v", cs, cs2)
			}
		}
		var fr, fr2 FrameRequest
		if fr.UnmarshalProto(data) == nil {
			if err := fr2.UnmarshalProto(fr.AppendProto(nil)); err != nil {
				t.Fatalf("re-decode of %+v: %v", fr, err)
			}
			if fr.SessionID != fr2.SessionID || !bytes.Equal(fr.Frame, fr2.Frame) {
				t.Fatalf("round trip changed %+v into %+v", fr, fr2)
			}
		}
	})
}

// equalCreateSession compares two requests field by field, salience by
// its bits so a NaN equals itself.
func equalCreateSession(a, b *CreateSessionRequest) bool {
	if a.Seed != b.Seed || a.SpanLo != b.SpanLo || a.SpanHi != b.SpanHi || len(a.Tokens) != len(b.Tokens) {
		return false
	}
	for i, x := range a.Tokens {
		y := b.Tokens[i]
		if x.Topic != y.Topic || x.Payload != y.Payload || math.Float32bits(x.Salience) != math.Float32bits(y.Salience) {
			return false
		}
	}
	return true
}
