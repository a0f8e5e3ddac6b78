package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func sampleVec(n int, seed float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = seed + float32(i)*0.25
	}
	// Exercise non-trivial float bit patterns.
	if n > 2 {
		v[1] = float32(math.Pi)
		v[2] = -0
	}
	return v
}

func sampleStepReq(layers, heads, dim int) *StepRequest {
	qs := make([][][]float32, layers)
	for l := range qs {
		qs[l] = make([][]float32, heads)
		for h := range qs[l] {
			qs[l][h] = sampleVec(dim, float32(l*heads+h))
		}
	}
	return &StepRequest{Token: model.Token{Topic: 7, Payload: 3, Salience: 1.5}, Queries: qs}
}

func sampleStepResp(layers, heads, dim int) *StepResponse {
	resp := &StepResponse{ContextLen: 321, Layers: make([][]AttentionResponse, layers)}
	for l := range resp.Layers {
		resp.Layers[l] = make([]AttentionResponse, heads)
		for h := range resp.Layers[l] {
			resp.Layers[l][h] = AttentionResponse{
				Output:    sampleVec(dim, float32(100+l*heads+h)),
				Plan:      "full/fine",
				Retrieved: 12,
				Attended:  321,
			}
		}
	}
	return resp
}

// roundTrip marshals v, unmarshals into fresh, and compares.
func roundTrip(t *testing.T, v, fresh interface{}) []byte {
	t.Helper()
	data, err := MarshalFrame(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	if err := UnmarshalFrame(data, fresh); err != nil {
		t.Fatalf("unmarshal %T: %v", fresh, err)
	}
	return data
}

func TestFrameRoundTrip(t *testing.T) {
	stepReq := sampleStepReq(3, 2, 8)
	var gotStepReq StepRequest
	roundTrip(t, stepReq, &gotStepReq)
	if !reflect.DeepEqual(*stepReq, gotStepReq) {
		t.Fatalf("step request: got %+v want %+v", gotStepReq, *stepReq)
	}

	attendOnly := sampleStepReq(1, 3, 4)
	attendOnly.AttendOnly = true
	var gotAttendOnly StepRequest
	roundTrip(t, attendOnly, &gotAttendOnly)
	if !reflect.DeepEqual(*attendOnly, gotAttendOnly) {
		t.Fatalf("attend-only step request: got %+v want %+v", gotAttendOnly, *attendOnly)
	}

	stepResp := sampleStepResp(2, 3, 8)
	var gotStepResp StepResponse
	roundTrip(t, stepResp, &gotStepResp)
	if stepResp.ContextLen != gotStepResp.ContextLen || !reflect.DeepEqual(stepResp.Layers, gotStepResp.Layers) {
		t.Fatalf("step response: got %+v want %+v", gotStepResp, *stepResp)
	}

	stepsReq := &StepsRequest{Steps: []StepRequest{*sampleStepReq(2, 2, 4), *sampleStepReq(2, 2, 4)}}
	var gotStepsReq StepsRequest
	roundTrip(t, stepsReq, &gotStepsReq)
	if !reflect.DeepEqual(*stepsReq, gotStepsReq) {
		t.Fatalf("steps request: got %+v want %+v", gotStepsReq, *stepsReq)
	}
}

// TestFrameFloatBits pins the IEEE-754 bit preservation the codec's
// identity guarantee rests on: every special value crosses the wire with
// its exact bits.
func TestFrameFloatBits(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, math.SmallestNonzeroFloat32,
		float32(math.NaN()),
	}
	req := &StepRequest{Queries: [][][]float32{{specials}}}
	var got StepRequest
	roundTrip(t, req, &got)
	for i := range specials {
		if math.Float32bits(specials[i]) != math.Float32bits(got.Queries[0][0][i]) {
			t.Fatalf("float %d: bits %08x -> %08x", i,
				math.Float32bits(specials[i]), math.Float32bits(got.Queries[0][0][i]))
		}
	}
}

func TestFrameHeaderValidation(t *testing.T) {
	good, err := MarshalFrame(sampleStepReq(1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	var req StepRequest

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", good[:8], "truncated"},
		{"bad magic", append([]byte("NOPE"), good[4:]...), "magic"},
		{"bad version", func() []byte { d := bytes.Clone(good); d[4] = 9; return d }(), "version"},
		{"bad kind", func() []byte { d := bytes.Clone(good); d[5] = FrameStepResponse; return d }(), "kind"},
		{"removed kind", removedKindFrame(t), "kind 1"},
		{"nonzero reserved byte", func() []byte { d := bytes.Clone(good); d[7] = 1; return d }(), "reserved"},
		{"truncated payload", good[:len(good)-3], "payload length"},
		{"trailing byte outside payload", func() []byte {
			d := bytes.Clone(good)
			d = append(d, 0xAA)
			return d
		}(), "payload length"},
		{"trailing byte inside payload", func() []byte {
			d := bytes.Clone(good)
			d = append(d, 0xAA)
			binary.LittleEndian.PutUint32(d[8:], uint32(len(d)-frameHeaderLen))
			return d
		}(), "trailing"},
	}
	for _, tc := range cases {
		if err := UnmarshalFrame(tc.data, &req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Unsupported types are rejected on both sides.
	if _, err := MarshalFrame(&StatsResponse{}); err == nil {
		t.Error("marshal of unframeable type succeeded")
	}
	var stats StatsResponse
	if err := UnmarshalFrame(good, &stats); err == nil {
		t.Error("unmarshal into unframeable type succeeded")
	}
}

// TestFrameCraftedGeometry feeds frames whose counts and geometry claim
// far more data than the body holds; decoders must fail cleanly instead of
// over-allocating or panicking.
// craftedStepReq is a step request frame with an empty token, no flags and
// the given declared geometry, and no query floats behind it.
func craftedStepReq(layers, heads, dim uint32) []byte {
	crafted := []byte(frameMagic)
	crafted = append(crafted, FrameVersion, FrameStepRequest, 0, 0)
	payload := appendToken(nil, model.Token{})
	payload = append(payload, 0) // flags
	payload = appendU32(payload, layers)
	payload = appendU32(payload, heads)
	payload = appendU32(payload, dim)
	crafted = appendU32(crafted, uint32(len(payload)))
	return append(crafted, payload...)
}

func TestFrameCraftedGeometry(t *testing.T) {
	// A step request claiming 1e9 layers in a tiny body.
	var step StepRequest
	err := UnmarshalFrame(craftedStepReq(1_000_000_000, 1_000_000_000, 1_000_000_000), &step)
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("crafted geometry: err = %v", err)
	}

	// Zero dim with a huge layers×heads product: no float payload is
	// claimed, but decoding would still demand billions of slice headers.
	var zeroDim StepRequest
	err = UnmarshalFrame(craftedStepReq(16_000_000, 16_000_000, 0), &zeroDim)
	if err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("zero-dim crafted geometry: err = %v", err)
	}

	// A steps request claiming a huge step count.
	crafted := []byte(frameMagic)
	crafted = append(crafted, FrameVersion, FrameStepsRequest, 0, 0)
	payload := appendU32(nil, 4_000_000_000)
	crafted = appendU32(crafted, uint32(len(payload)))
	crafted = append(crafted, payload...)
	var steps StepsRequest
	if err := UnmarshalFrame(crafted, &steps); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("crafted count: err = %v", err)
	}

	// A vector length past the payload end.
	crafted = []byte(frameMagic)
	crafted = append(crafted, FrameVersion, FrameStepResponse, 0, 0)
	payload = appendU32(nil, 1) // ctxlen
	payload = appendU32(payload, 1)
	payload = appendU32(payload, 1)
	payload = appendString(payload, "full")
	payload = appendU32(payload, 0)
	payload = appendU32(payload, 0)
	payload = appendF64(payload, 0)
	payload = appendU32(payload, 500) // dim with no floats behind it
	crafted = appendU32(crafted, uint32(len(payload)))
	crafted = append(crafted, payload...)
	var resp StepResponse
	if err := UnmarshalFrame(crafted, &resp); err == nil {
		t.Fatal("oversized vector accepted")
	}
}

// TestFrameNonCanonicalGeometry: an empty query grid has one encoding.
// Frames that declare heads without layers, or a dimension without heads,
// decode to a grid that would re-encode differently, so they are refused.
func TestFrameNonCanonicalGeometry(t *testing.T) {
	for _, geom := range [][3]uint32{{0, 2, 0}, {0, 0, 4}, {3, 0, 4}} {
		var step StepRequest
		err := UnmarshalFrame(craftedStepReq(geom[0], geom[1], geom[2]), &step)
		if err == nil || !strings.Contains(err.Error(), "non-canonical") {
			t.Errorf("geometry %v: err = %v", geom, err)
		}
	}
}

// TestFrameRaggedGeometry: encoders refuse query grids the fixed-geometry
// layout cannot represent.
func TestFrameRaggedGeometry(t *testing.T) {
	dims := sampleStepReq(2, 2, 4)
	dims.Queries[1][1] = dims.Queries[1][1][:3]
	if _, err := MarshalFrame(dims); err == nil {
		t.Fatal("ragged query dims accepted")
	}
	bad := sampleStepReq(2, 2, 4)
	bad.Queries[1] = bad.Queries[1][:1]
	if _, err := MarshalFrame(bad); err == nil {
		t.Fatal("ragged step accepted")
	}
}
