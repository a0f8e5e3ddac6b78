package alayaclient

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
	agrpc "repro/internal/serve/grpc"
)

// StepStream iterates a step_stream response: one StepResponse per
// submitted step, in order, each readable as soon as the step completes
// server-side. Not safe for concurrent use; the submitting
// goroutine drives Recv.
type StepStream struct {
	body  io.ReadCloser       // HTTP mode
	sr    *serve.StreamReader // HTTP binary frames
	dec   *json.Decoder       // HTTP NDJSON (WithJSONWire)
	gs    *agrpc.Stream       // gRPC mode; body/sr/dec are nil
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
	in := &serve.StepsRequest{Steps: steps}
	c := s.c
	if c.rc != nil {
		gs, err := c.rc.StepStream(ctx, s.ID, in)
		if err != nil {
			return nil, apiErr(err)
		}
		return &StepStream{gs: gs}, nil
	}
	if c.forceJSON {
		body, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		resp, err := c.send(ctx, http.MethodPost, s.path("step_stream"), "application/json", body, "")
		if err != nil {
			return nil, err
		}
		return &StepStream{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
	}
	body, err := serve.MarshalFrame(in)
	if err != nil {
		return nil, frameErr(err)
	}
	resp, err := c.send(ctx, http.MethodPost, s.path("step_stream"), serve.FrameContentType, body, serve.FrameContentType)
	if err != nil {
		return nil, err
	}
	return &StepStream{body: resp.Body, sr: serve.NewStreamReader(resp.Body)}, nil
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
		st.err = apiErr(err)
		st.release(false)
		return zero, st.err
	}
	st.items++
	return resp, nil
}

func (st *StepStream) next() (StepResponse, error) {
	var resp StepResponse
	switch {
	case st.gs != nil:
		r, err := st.gs.Recv()
		if err != nil {
			return resp, err
		}
		return *r, nil
	case st.sr != nil:
		err := st.sr.Next(&resp)
		return resp, err
	}
	var row struct {
		serve.StreamItemEnvelope
		serve.StreamEndEnvelope
	}
	if err := st.dec.Decode(&row); err != nil {
		if err == io.EOF {
			return resp, fmt.Errorf("alayaclient: stream ended without a terminator")
		}
		return resp, err
	}
	if row.StreamEnd {
		return resp, serve.StreamEnd(st.items, row.Items, serve.ErrorEnvelope{Error: row.Error, Kind: row.Kind})
	}
	if row.Step == nil {
		return resp, fmt.Errorf("alayaclient: stream element carries no step")
	}
	return *row.Step, nil
}

// Items reports how many step responses have been received so far.
func (st *StepStream) Items() int { return st.items }

// Close releases the stream's connection. Safe to call at any point and
// more than once; a stream read to io.EOF closes cleanly.
func (st *StepStream) Close() error {
	err := st.release(true)
	if !st.done {
		st.done = true
		st.err = fmt.Errorf("alayaclient: stream closed")
	}
	return err
}

// release closes the stream's connection, draining an HTTP body first
// when drain is set so the connection can be reused.
func (st *StepStream) release(drain bool) (err error) {
	if st.body != nil {
		if drain {
			io.Copy(io.Discard, st.body)
		}
		err = st.body.Close()
		st.body = nil
	}
	if st.gs != nil {
		err = st.gs.Close()
		st.gs = nil
	}
	return err
}
