package alayaclient

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/serve"
)

// streamSteps builds an n-step batch over the env's precomputed queries.
func (e *testEnv) streamSteps(n int) []StepRequest {
	steps := make([]StepRequest, n)
	for i := range steps {
		steps[i] = StepRequest{Token: Token{Topic: 1, Payload: i + 1}, Queries: e.queries(i)}
	}
	return steps
}

// unarySteps issues steps one Step call at a time — the reference a
// streamed batch must match.
func unarySteps(t *testing.T, ctx context.Context, sess *Session, steps []StepRequest) []StepResponse {
	t.Helper()
	out := make([]StepResponse, len(steps))
	for i, st := range steps {
		resp, err := sess.Step(ctx, st.Token, st.Queries)
		if err != nil {
			t.Fatalf("unary step %d: %v", i, err)
		}
		out[i] = resp
	}
	return out
}

// TestStepStreamMatchesSteps: the streaming endpoint yields the same
// responses, in order and bit for bit, as N unary Step calls on a twin
// session, over the binary frame wire. (The server's NDJSON stream is
// pinned the same way by serve's TestStepStreamNDJSONMatchesSteps.)
func TestStepStreamMatchesSteps(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"frame", nil},
	} {
		t.Run(mode.name, func(t *testing.T) {
			env := newTestEnv(t, 300)
			ctx := context.Background()
			const n = 4

			twin := env.session(t, env.cl(t, mode.opts...))
			want := unarySteps(t, ctx, twin, env.streamSteps(n))

			streamSess := env.session(t, env.cl(t, mode.opts...))
			stream, err := streamSess.StepStream(ctx, env.streamSteps(n))
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()

			var got []StepResponse
			for {
				resp, err := stream.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, resp)
			}
			if len(got) != n || stream.Items() != n {
				t.Fatalf("stream yielded %d steps (Items=%d), want %d", len(got), stream.Items(), n)
			}
			for i := range got {
				if got[i].ContextLen != want[i].ContextLen {
					t.Fatalf("step %d context %d vs %d", i, got[i].ContextLen, want[i].ContextLen)
				}
				for l := range got[i].Layers {
					for h := range got[i].Layers[l] {
						sameOutputs(t, fmt.Sprintf("stream step %d L%dH%d", i, l, h),
							got[i].Layers[l][h], want[i].Layers[l][h])
					}
				}
			}
			// Recv after EOF stays terminal.
			if _, err := stream.Recv(); err != io.EOF {
				t.Fatalf("Recv after EOF = %v, want io.EOF", err)
			}
		})
	}
}

// TestStepStreamErrors: failures before the first frame surface as the
// usual typed *APIError; closing early and canceling the context both
// leave the stream in a terminal error state.
func TestStepStreamErrors(t *testing.T) {
	env := newTestEnv(t, 300)
	ctx := context.Background()
	c := env.cl(t)

	ghost := &Session{c: c, ID: 999999}
	if _, err := ghost.StepStream(ctx, env.streamSteps(1)); !IsNotFound(err) {
		t.Fatalf("ghost StepStream err = %v, want not_found APIError", err)
	}

	sess := env.session(t, c)
	bad := env.streamSteps(1)
	bad[0].Queries = bad[0].Queries[:1] // missing layers
	if _, err := sess.StepStream(ctx, bad); err == nil {
		t.Fatal("ragged stream batch accepted")
	} else if ae, ok := err.(*APIError); !ok || ae.Kind != serve.KindBadRequest {
		t.Fatalf("ragged stream batch err = %v, want bad_request APIError", err)
	}

	// Close before draining: later Recv reports the closed state.
	stream, err := sess.StepStream(ctx, env.streamSteps(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Recv(); err == nil || err == io.EOF {
		t.Fatalf("Recv after Close = %v, want terminal error", err)
	}

	// Canceled context: the in-flight stream errors out instead of
	// blocking forever.
	cctx, cancel := context.WithCancel(ctx)
	sess2 := env.session(t, c)
	stream2, err := sess2.StepStream(cctx, env.streamSteps(3))
	if err != nil {
		t.Fatal(err)
	}
	defer stream2.Close()
	cancel()
	for {
		_, err := stream2.Recv()
		if err == nil {
			continue // frames already in flight may still arrive
		}
		if err == io.EOF {
			break // whole stream beat the cancellation; that's legal
		}
		return // canceled mid-stream: terminal non-EOF error, as wanted
	}
}

// TestStepStreamEmptyBatch: zero steps is a clean, immediate EOF.
func TestStepStreamEmptyBatch(t *testing.T) {
	env := newTestEnv(t, 300)
	ctx := context.Background()
	sess := env.session(t, env.cl(t))
	stream, err := sess.StepStream(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Recv(); err != io.EOF {
		t.Fatalf("empty batch Recv = %v, want io.EOF", err)
	}
	if stream.Items() != 0 {
		t.Fatalf("empty batch Items = %d", stream.Items())
	}
}
