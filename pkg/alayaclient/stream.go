package alayaclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
	"repro/internal/serve/grpc/pb"
)

// StepStream iterates a step_stream response: one StepResponse per
// submitted step, in order, each readable as soon as the step completes
// server-side. Not safe for concurrent use; the submitting
// goroutine drives Recv.
type StepStream struct {
	body  io.ReadCloser
	sc    *serve.StreamScanner // binary mode
	dec   *json.Decoder        // NDJSON fallback
	gs    *agrpc.ClientStream  // gRPC mode; body/sc/dec are nil
	items int
	done  bool
	err   error // terminal state after done: io.EOF or the stream error
}

// StepStream submits a batch of decode steps and returns an iterator
// over their responses, which become readable one by one while later
// steps are still decoding. Cancel ctx to abandon the
// stream (the server drains the remaining steps without computing them);
// always Close the stream.
func (s *Session) StepStream(ctx context.Context, steps []StepRequest) (*StepStream, error) {
	if s.c.gc != nil {
		return s.grpcStepStream(ctx, steps)
	}
	in := &serve.StepsRequest{Steps: steps}
	c := s.c
	if !c.forceJSON.Load() {
		body, err := serve.MarshalFrame(in)
		if err == nil {
			resp, err := c.send(ctx, http.MethodPost, s.path("step_stream"), serve.FrameContentType, body, serve.FrameContentType)
			if ae, ok := err.(*APIError); ok && (ae.Status == http.StatusUnsupportedMediaType || ae.Status == http.StatusNotAcceptable) {
				c.forceJSON.Store(true) // server speaks no frames; stay on JSON
			} else if err != nil {
				return nil, err
			} else {
				return newStepStream(resp), nil
			}
		}
		// Ragged geometry has no frame encoding; submit over JSON and let
		// the server reject it with its typed validation error.
	}
	jbody, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(ctx, http.MethodPost, s.path("step_stream"), "application/json", jbody, "")
	if err != nil {
		return nil, err
	}
	return newStepStream(resp), nil
}

func newStepStream(resp *http.Response) *StepStream {
	st := &StepStream{body: resp.Body}
	if serve.IsFrameMedia(resp.Header.Get("Content-Type")) {
		st.sc = serve.NewStreamScanner(resp.Body)
	} else {
		st.dec = json.NewDecoder(resp.Body)
	}
	return st
}

// Recv returns the next step's response. After the final step it returns
// io.EOF; if the server cut the stream short with a typed error, that
// error (an *APIError) is returned instead, on this and every later
// call.
func (st *StepStream) Recv() (StepResponse, error) {
	var zero StepResponse
	if st.done {
		return zero, st.err
	}
	resp, err := st.next()
	if err != nil {
		// Terminal: a clean end (io.EOF) has drained the body, and a
		// broken stream will not repair itself — either way the
		// connection can go back to (or out of) the pool.
		st.done = true
		st.err = err
		if st.body != nil {
			st.body.Close()
			st.body = nil
		}
		if st.gs != nil {
			st.gs.Close()
			st.gs = nil
		}
		return zero, err
	}
	st.items++
	return resp, nil
}

func (st *StepStream) next() (StepResponse, error) {
	var zero StepResponse
	if st.gs != nil {
		// gRPC mode: each streamed message wraps exactly one of the same
		// stream frames the HTTP binary wire carries.
		var msg pb.FrameResponse
		if err := st.gs.Recv(&msg); err != nil {
			if err == io.EOF {
				return zero, fmt.Errorf("alayaclient: stream ended without a stream-end frame")
			}
			return zero, grpcErr(err)
		}
		kind, payload, err := serve.NewStreamScanner(bytes.NewReader(msg.Frame)).ReadFrame()
		if err != nil {
			return zero, err
		}
		return st.streamFrame(kind, payload)
	}
	if st.sc != nil {
		kind, payload, err := st.sc.ReadFrame()
		if err == io.EOF {
			return zero, fmt.Errorf("alayaclient: stream ended without a stream-end frame")
		}
		if err != nil {
			return zero, err
		}
		return st.streamFrame(kind, payload)
	}
	var row struct {
		Step      *StepResponse `json:"step"`
		StreamEnd bool          `json:"stream_end"`
		Items     int           `json:"items"`
		Error     string        `json:"error"`
		Kind      serve.Kind    `json:"kind"`
	}
	if err := st.dec.Decode(&row); err != nil {
		if err == io.EOF {
			return zero, fmt.Errorf("alayaclient: stream ended without a terminator")
		}
		return zero, err
	}
	if row.StreamEnd {
		return zero, st.finish(row.Items, serve.ErrorEnvelope{Error: row.Error, Kind: row.Kind})
	}
	if row.Step == nil {
		return zero, fmt.Errorf("alayaclient: stream element carries no step")
	}
	return *row.Step, nil
}

// streamFrame interprets one binary stream frame (either wire).
func (st *StepStream) streamFrame(kind byte, payload []byte) (StepResponse, error) {
	var zero StepResponse
	switch kind {
	case serve.FrameStreamItem:
		var resp StepResponse
		if err := serve.UnmarshalFrame(payload, &resp); err != nil {
			return zero, err
		}
		return resp, nil
	case serve.FrameStreamEnd:
		n, env, err := serve.DecodeStreamEnd(payload)
		if err != nil {
			return zero, err
		}
		return zero, st.finish(n, env)
	default:
		return zero, fmt.Errorf("alayaclient: unexpected stream frame kind %d", kind)
	}
}

// finish interprets the stream terminator.
func (st *StepStream) finish(items int, env serve.ErrorEnvelope) error {
	if env.Error != "" || env.Kind != "" {
		return &APIError{Status: serve.HTTPStatus(env.Kind), Kind: env.Kind, Message: env.Error}
	}
	if items != st.items {
		return fmt.Errorf("alayaclient: stream terminator claims %d items, received %d", items, st.items)
	}
	return io.EOF
}

// Items reports how many step responses have been received so far.
func (st *StepStream) Items() int { return st.items }

// Close releases the stream's connection. Safe to call at any point and
// more than once; a stream read to io.EOF closes cleanly.
func (st *StepStream) Close() error {
	if st.body == nil && st.gs == nil {
		return nil
	}
	var err error
	if st.body != nil {
		io.Copy(io.Discard, st.body)
		err = st.body.Close()
		st.body = nil
	}
	if st.gs != nil {
		err = st.gs.Close()
		st.gs = nil
	}
	if !st.done {
		st.done = true
		st.err = fmt.Errorf("alayaclient: stream closed")
	}
	return err
}
