package main

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/alayaclient"
)

// A path is one depth of the stack a request can be driven through: the
// SDK over a wire (depth 1 on the wire workloads), a serve.Core called
// in-process (depth 2; depth 1 on long-local), or core.DB/core.Session
// directly (depth 3). The same request runs unchanged on any of them, which
// is what lets the traced run replay identical steps one layer deeper.
type path interface {
	create(doc *model.Document) (session, int, error)
}

type session interface {
	prefill() error
	// step decodes one token; out is valid until the next call or release.
	step(tok model.Token, qs [][][]float32, out *stepOut) error
	// stream decodes a batch, calling onFrame as each step's output
	// arrives; out is only valid inside the callback.
	stream(toks []model.Token, qs [][][][]float32, onFrame func(i int, out *stepOut)) error
	store() error
	close() error
}

// stepOut is one step's [layer][head] outputs, whichever depth produced
// them: a wire response (SDK, serve.Core) or raw core results.
type stepOut struct {
	wire *serve.StepResponse
	raw  [][]core.AttentionResult
}

func (o *stepOut) output(l, h int) []float32 {
	if o.wire != nil {
		return o.wire.Layers[l][h].Output
	}
	return o.raw[l][h].Output
}

func (o *stepOut) plan(l, h int) string {
	if o.wire != nil {
		return o.wire.Layers[l][h].Plan
	}
	return o.raw[l][h].Plan.String()
}

func (o *stepOut) counts(l, h int) (retrieved, attended int) {
	if o.wire != nil {
		a := &o.wire.Layers[l][h]
		return a.Retrieved, a.Attended
	}
	return o.raw[l][h].Retrieved, o.raw[l][h].Attended
}

// release hands pooled response buffers back (in-process serve.Core
// responses alias them; a no-op everywhere else).
func (o *stepOut) release() {
	if o.wire != nil {
		o.wire.Release()
		o.wire = nil
	}
}

// --- depth 1 on the wire workloads: pkg/alayaclient over HTTP or gRPC ---

type sdkPath struct{ cli *alayaclient.Client }

type sdkSession struct {
	s    *alayaclient.Session
	resp alayaclient.StepResponse
	reqs []alayaclient.StepRequest
}

func (p sdkPath) create(doc *model.Document) (session, int, error) {
	s, err := p.cli.CreateSession(context.Background(), doc)
	if err != nil {
		return nil, 0, err
	}
	return &sdkSession{s: s}, s.Reused, nil
}

func (s *sdkSession) prefill() error {
	_, err := s.s.Prefill(context.Background())
	return err
}

func (s *sdkSession) step(tok model.Token, qs [][][]float32, out *stepOut) error {
	var err error
	s.resp, err = s.s.Step(context.Background(), tok, qs)
	out.wire, out.raw = &s.resp, nil
	return err
}

func (s *sdkSession) stream(toks []model.Token, qs [][][][]float32, onFrame func(int, *stepOut)) error {
	s.reqs = s.reqs[:0]
	for i := range toks {
		s.reqs = append(s.reqs, alayaclient.StepRequest{Token: toks[i], Queries: qs[i]})
	}
	st, err := s.s.StepStream(context.Background(), s.reqs)
	if err != nil {
		return err
	}
	defer st.Close()
	var out stepOut
	for i := 0; ; i++ {
		resp, err := st.Recv()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		out.wire = &resp
		onFrame(i, &out)
	}
}

func (s *sdkSession) store() error {
	_, err := s.s.Store(context.Background())
	return err
}

func (s *sdkSession) close() error { return s.s.CloseSession(context.Background()) }

// --- depth 2: a serve.Core (local Service or cluster Router) in-process ---

type corePath struct{ c serve.Core }

type coreSession struct {
	c    serve.Core
	id   int64
	req  serve.StepRequest
	reqs serve.StepsRequest
}

func (p corePath) create(doc *model.Document) (session, int, error) {
	resp, err := p.c.CreateSession(&serve.CreateSessionRequest{Seed: doc.Seed, Tokens: doc.Tokens})
	if err != nil {
		return nil, 0, err
	}
	return &coreSession{c: p.c, id: resp.SessionID}, resp.Reused, nil
}

func (s *coreSession) prefill() error {
	_, err := s.c.Prefill(s.id)
	return err
}

func (s *coreSession) step(tok model.Token, qs [][][]float32, out *stepOut) error {
	s.req = serve.StepRequest{Token: tok, Queries: qs}
	resp, err := s.c.Step(s.id, &s.req)
	out.wire, out.raw = resp, nil
	return err
}

func (s *coreSession) stream(toks []model.Token, qs [][][][]float32, onFrame func(int, *stepOut)) error {
	s.reqs.Steps = s.reqs.Steps[:0]
	for i := range toks {
		s.reqs.Steps = append(s.reqs.Steps, serve.StepRequest{Token: toks[i], Queries: qs[i]})
	}
	i := 0
	return s.c.StepStream(context.Background(), s.id, &s.reqs, func(resp *serve.StepResponse) error {
		onFrame(i, &stepOut{wire: resp}) // the core releases resp when the sink returns
		i++
		return nil
	})
}

func (s *coreSession) store() error {
	_, err := s.c.Store(s.id)
	return err
}

func (s *coreSession) close() error {
	_, err := s.c.CloseSession(s.id)
	return err
}

// --- depth 3: core.DB and core.Session, no serving layer at all ---

type dbPath struct{ db *core.DB }

type dbSession struct {
	db  *core.DB
	s   *core.Session
	res [][]core.AttentionResult
}

func (p dbPath) create(doc *model.Document) (session, int, error) {
	s, reused := p.db.CreateSession(doc)
	mc := p.db.Model().Config()
	res := make([][]core.AttentionResult, mc.Layers)
	for l := range res {
		res[l] = make([]core.AttentionResult, mc.QHeads)
	}
	return &dbSession{db: p.db, s: s, res: res}, reused, nil
}

func (s *dbSession) prefill() error {
	s.s.PrefillRemaining()
	return nil
}

func (s *dbSession) step(tok model.Token, qs [][][]float32, out *stepOut) error {
	s.s.StepInto(tok, qs, s.res)
	out.wire, out.raw = nil, s.res
	return nil
}

func (s *dbSession) stream(toks []model.Token, qs [][][][]float32, onFrame func(int, *stepOut)) error {
	var out stepOut
	for i := range toks {
		if err := s.step(toks[i], qs[i], &out); err != nil {
			return err
		}
		onFrame(i, &out)
	}
	return nil
}

func (s *dbSession) store() error {
	_, err := s.db.Store(s.s)
	return err
}

func (s *dbSession) close() error { return s.s.Close() }
