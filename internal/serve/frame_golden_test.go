package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/model"
)

// goldenQueries is a fixed 2-layer × 2-head × 3-dim query grid with
// non-trivial float bit patterns (π, −0, +Inf, NaN).
func goldenQueries() [][][]float32 {
	return [][][]float32{
		{{1, float32(math.Pi), float32(math.Copysign(0, -1))}, {-2.5, 0.125, float32(math.Inf(1))}},
		{{3, 4, 5}, {float32(math.NaN()), -7, 1e-30}},
	}
}

func goldenStepReq(attendOnly bool) *StepRequest {
	return &StepRequest{
		Token:      model.Token{Topic: 11, Payload: 4, Salience: 0.75},
		Queries:    goldenQueries(),
		AttendOnly: attendOnly,
	}
}

// goldenStepResp has one empty head carrying the LSE sentinel.
func goldenStepResp() *StepResponse {
	return &StepResponse{ContextLen: 300, Layers: [][]AttentionResponse{
		{
			{Output: []float32{0.5, -1, 2}, Plan: "dipr/fine", Retrieved: 12, Attended: 140, LSE: 3.25},
			{Output: []float32{1, 2, 3}, Plan: "full", Retrieved: 0, Attended: 300, LSE: -0.5},
		},
		{
			{Output: []float32{4, 5, float32(math.Pi)}, Plan: "dipr/flat[filtered]", Retrieved: 7, Attended: 99, LSE: 12.75},
			{Output: []float32{0, 0, 0}, Plan: "full", Retrieved: 0, Attended: 0, LSE: LSESentinel},
		},
	}}
}

// goldenFrames encodes the fixed messages of every frame kind the wire
// still carries.
func goldenFrames(t testing.TB) map[string][]byte {
	t.Helper()
	enc := func(v interface{}) []byte {
		b, err := MarshalFrame(v)
		if err != nil {
			t.Fatalf("marshal %T: %v", v, err)
		}
		return b
	}
	item, err := AppendStreamItemFrame(nil, goldenStepResp())
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"step_request":             enc(goldenStepReq(false)),
		"step_request_attend_only": enc(goldenStepReq(true)),
		"step_response":            enc(goldenStepResp()),
		"steps_request":            enc(&StepsRequest{Steps: []StepRequest{*goldenStepReq(false), *goldenStepReq(true)}}),
		"stream_item":              item,
		"stream_end":               AppendStreamEndFrame(nil, 2, ErrorEnvelope{Error: "no session 9", Kind: KindNotFound}),
	}
}

// TestFrameGolden pins the bytes of every surviving frame kind: the
// sha256 of each fixed encoding must never change, whatever the codec's
// internals do, because deployed peers decode exactly these bytes.
func TestFrameGolden(t *testing.T) {
	want := map[string]string{
		"step_request":             "6f9c6e9d275db5dd1d5175390ebb05a5d93563c9c4c4b2caee1c4dba24d681c4",
		"step_request_attend_only": "1a0c42eaa95b9ad9f7888b4beaaf82adf34fb2254cae7091c00d8f22b4677e1f",
		"step_response":            "40ce0d6610ba7ec4b1f45a1fb8d5de800e8e89825420909ec3794dd8535e4a78",
		"steps_request":            "8e658a96fc1019d172c60cb7db2fb91ab9d8054c339664cc41783b8602795d59",
		"stream_item":              "99c6024ec2faa52d20fe266257073c65f5db95ee1e7e49ad55887cb550a33c22",
		"stream_end":               "10606ce7b7538db1e9132983f7bdd2b14b9aa67ed1bdeca4281b3d4d2eaddcf0",
	}
	frames := goldenFrames(t)
	if len(frames) != len(want) {
		t.Fatalf("%d golden frames, want %d", len(frames), len(want))
	}
	for name, b := range frames {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
		}
	}
}

// removedKindFrame is a well-formed step request frame relabelled with
// kind 1, the retired per-head attention request.
func removedKindFrame(t testing.TB) []byte {
	t.Helper()
	b, err := MarshalFrame(goldenStepReq(false))
	if err != nil {
		t.Fatal(err)
	}
	b[5] = 1
	return b
}

// FuzzUnmarshalFrame feeds arbitrary bytes to every frame decoder. None
// may panic, and whatever decodes must re-encode to exactly the input:
// the codec has one encoding per message, so a peer that re-frames a
// decoded message forwards the bytes it was given. The shared stream
// reader gets the same bytes as an HTTP body and as one gRPC message's
// frame: it may not panic either, and it may report a clean end only for
// a terminator whose item count matches the items before it and that
// nothing follows.
func FuzzUnmarshalFrame(f *testing.F) {
	for _, b := range goldenFrames(f) {
		f.Add(b)
	}
	item := goldenFrames(f)["stream_item"]
	f.Add(append(append([]byte(nil), item...), AppendStreamEndFrame(nil, 1, ErrorEnvelope{})...))
	f.Add(append(append([]byte(nil), item...), AppendStreamEndFrame(nil, 2, ErrorEnvelope{})...))
	f.Add(append(append(append([]byte(nil), item...), AppendStreamEndFrame(nil, 1, ErrorEnvelope{})...), make([]byte, 28)...))
	f.Add(AppendStreamEndFrame(nil, 0, ErrorEnvelope{}))
	step := goldenFrames(f)["step_request"]
	f.Add(step[:len(step)-3])
	f.Add(removedKindFrame(f))
	f.Add(craftedStepReq(0, 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []interface{}{new(StepRequest), new(StepsRequest), new(StepResponse)} {
			if UnmarshalFrame(data, v) != nil {
				continue
			}
			out, err := MarshalFrame(v)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%T re-encodes to %x, decoded from %x", v, out, data)
			}
		}

		checkStreamReader(t, data)

		r := bytes.NewReader(data)
		sc := NewStreamScanner(r)
		for {
			start := len(data) - r.Len()
			kind, payload, err := sc.ReadFrame()
			if err != nil {
				return
			}
			raw := data[start : len(data)-r.Len()]
			var out []byte
			switch kind {
			case FrameStreamItem:
				var step StepResponse
				if UnmarshalFrame(payload, &step) != nil {
					continue
				}
				if out, err = AppendStreamItemFrame(nil, &step); err != nil {
					t.Fatalf("decoded stream item does not re-encode: %v", err)
				}
			case FrameStreamEnd:
				items, env, derr := DecodeStreamEnd(payload)
				if derr != nil {
					continue
				}
				out = AppendStreamEndFrame(nil, items, env)
			default:
				continue
			}
			if !bytes.Equal(out, raw) {
				t.Fatalf("stream frame kind %d re-encodes to %x, read from %x", kind, out, raw)
			}
		}
	})
}

// checkStreamReader runs data through StreamReader both ways and checks
// every clean end it reports against an independent scan of the frames.
func checkStreamReader(t *testing.T, data []byte) {
	var step StepResponse
	body := NewStreamReader(bytes.NewReader(data))
	items := 0
	err := body.Next(&step)
	for ; err == nil; err = body.Next(&step) {
		items++
	}
	if err == io.EOF {
		sc := NewStreamScanner(bytes.NewReader(data))
		for i := 0; i <= items; i++ {
			kind, payload, serr := sc.ReadFrame()
			if serr != nil {
				t.Fatalf("reader ended cleanly after %d items, scanner fails at frame %d: %v", items, i, serr)
			}
			if i < items {
				if kind != FrameStreamItem {
					t.Fatalf("reader counted frame %d (kind %d) as an item", i, kind)
				}
				continue
			}
			n, env, derr := DecodeStreamEnd(payload)
			if kind != FrameStreamEnd || derr != nil || n != items || env != (ErrorEnvelope{}) {
				t.Fatalf("reader ended cleanly after %d items on frame kind %d claiming %d items, env %+v (%v)", items, kind, n, env, derr)
			}
		}
		if _, _, serr := sc.ReadFrame(); serr != io.EOF {
			t.Fatalf("reader ended cleanly after %d items with bytes after the terminator (%v)", items, serr)
		}
	}

	if new(StreamReader).Message(data, &step) == io.EOF {
		n, env, derr := DecodeStreamEnd(data[min(len(data), frameHeaderLen):])
		if data[5] != FrameStreamEnd || derr != nil || n != 0 || env != (ErrorEnvelope{}) {
			t.Fatalf("message %x ended a stream of 0 items cleanly", data)
		}
	}
}
