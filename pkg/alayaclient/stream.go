package alayaclient

import (
	"context"

	"repro/internal/serve"
)

// StepStream iterates a step_stream response: one StepResponse per
// submitted step, in order, each readable as soon as the step completes
// server-side. Not safe for concurrent use; the submitting
// goroutine drives Recv.
type StepStream struct {
	s     *serve.Stream
	items int
}

// StepStream submits a batch of decode steps and returns an iterator
// over their responses, which become readable one by one while later
// steps are still decoding. Cancel ctx to abandon the
// stream (the server drains the remaining steps without computing them);
// always Close the stream.
func (s *Session) StepStream(ctx context.Context, steps []StepRequest) (*StepStream, error) {
	st, err := s.c.r.StepStream(ctx, s.ID, &serve.StepsRequest{Steps: steps})
	if err != nil {
		return nil, apiErr(err)
	}
	return &StepStream{s: st}, nil
}

// Recv returns the next step's response. After the final step it returns
// io.EOF; if the stream ended any other way — the server cut it short
// with a typed error, the connection failed, or the stream broke its
// protocol — that error, an *APIError, is returned instead, on this and
// every later call.
func (st *StepStream) Recv() (StepResponse, error) {
	resp, err := st.s.Recv()
	if err != nil {
		return StepResponse{}, apiErr(err)
	}
	st.items++
	return *resp, nil
}

// Items reports how many step responses have been received so far.
func (st *StepStream) Items() int { return st.items }

// Close releases the stream's connection. Safe to call at any point and
// more than once; a stream read to its end has already released it.
func (st *StepStream) Close() error { return st.s.Close() }
