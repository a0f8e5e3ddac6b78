// Code generated by gen (make proto). DO NOT EDIT.
//
// Source of truth: the descriptor table in ./gen. Edit that table and
// re-run `make proto`; CI regenerates and fails on drift.

package pb

import "math"

// ServiceName is the fully-qualified gRPC service.
const ServiceName = "alaya.v1.AlayaDB"

// Method paths: the :path pseudo-header value of each RPC.
const (
	MethodCreateSession = "/alaya.v1.AlayaDB/CreateSession"
	MethodPrefill       = "/alaya.v1.AlayaDB/Prefill"
	MethodStep          = "/alaya.v1.AlayaDB/Step"
	MethodStepStream    = "/alaya.v1.AlayaDB/StepStream"
	MethodStore         = "/alaya.v1.AlayaDB/Store"
	MethodCloseSession  = "/alaya.v1.AlayaDB/CloseSession"
	MethodHealthz       = "/alaya.v1.AlayaDB/Healthz"
	MethodStats         = "/alaya.v1.AlayaDB/Stats"
)

// StreamingMethods marks the RPCs whose response is server-streaming.
var StreamingMethods = map[string]bool{
	MethodStepStream: true,
}

// Token mirrors model.Token: one document token.
type Token struct {
	Topic    int64   // synthetic vocabulary topic id
	Payload  int64   // payload symbol within the topic
	Salience float32 // 0 means default (1.0)
}

// AppendProto appends the message's proto3 encoding to b.
func (m *Token) AppendProto(b []byte) []byte {
	b = appendZigzagField(b, 1, m.Topic)
	b = appendZigzagField(b, 2, m.Payload)
	b = appendFloatField(b, 3, m.Salience)
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *Token) UnmarshalProto(data []byte) error {
	*m = Token{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.Topic = unzigzag(r.varint())
		case 2:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.Payload = unzigzag(r.varint())
		case 3:
			if wt != wireFixed32 {
				r.skip(wt)
				break
			}
			m.Salience = math.Float32frombits(r.fixed32())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// CreateSessionRequest opens a session over a document (serve.DocumentWire).
type CreateSessionRequest struct {
	Seed   uint64  // document identity for prefix reuse
	Tokens []Token // prompt tokens
	SpanLo int64   // range-shard span start (cluster shards)
	SpanHi int64   // exclusive span end; 0 = open tail
}

// AppendProto appends the message's proto3 encoding to b.
func (m *CreateSessionRequest) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, m.Seed)
	for i := range m.Tokens {
		b = appendMessageField(b, 2, &m.Tokens[i])
	}
	b = appendVarintField(b, 3, uint64(m.SpanLo))
	b = appendVarintField(b, 4, uint64(m.SpanHi))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *CreateSessionRequest) UnmarshalProto(data []byte) error {
	*m = CreateSessionRequest{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.Seed = r.varint()
		case 2:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.Tokens = append(m.Tokens, Token{})
			r.message(&m.Tokens[len(m.Tokens)-1])
		case 3:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.SpanLo = int64(r.varint())
		case 4:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.SpanHi = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// CreateSessionResponse reports the session id and reused prompt tokens.
type CreateSessionResponse struct {
	SessionID int64
	Reused    int64 // prompt tokens reused from a shared prefix
}

// AppendProto appends the message's proto3 encoding to b.
func (m *CreateSessionResponse) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, uint64(m.SessionID))
	b = appendVarintField(b, 2, uint64(m.Reused))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *CreateSessionResponse) UnmarshalProto(data []byte) error {
	*m = CreateSessionResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.SessionID = int64(r.varint())
		case 2:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.Reused = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// SessionRequest addresses an RPC whose only input is the session.
type SessionRequest struct {
	SessionID int64
}

// AppendProto appends the message's proto3 encoding to b.
func (m *SessionRequest) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, uint64(m.SessionID))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *SessionRequest) UnmarshalProto(data []byte) error {
	*m = SessionRequest{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.SessionID = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// PrefillResponse reports a prefill's effect.
type PrefillResponse struct {
	Prefilled  int64 // tokens ingested by this call
	ContextLen int64
}

// AppendProto appends the message's proto3 encoding to b.
func (m *PrefillResponse) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, uint64(m.Prefilled))
	b = appendVarintField(b, 2, uint64(m.ContextLen))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *PrefillResponse) UnmarshalProto(data []byte) error {
	*m = PrefillResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.Prefilled = int64(r.varint())
		case 2:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.ContextLen = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// FrameRequest carries a tensor request as one application/x-alaya-frame
// binary frame (serve.MarshalFrame), the same encoding the HTTP binary
// wire uses — which is what makes gRPC results bit-exact with HTTP.
type FrameRequest struct {
	SessionID int64
	Frame     []byte // one binary frame: the request payload
}

// AppendProto appends the message's proto3 encoding to b.
func (m *FrameRequest) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, uint64(m.SessionID))
	b = appendBytesField(b, 2, m.Frame)
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *FrameRequest) UnmarshalProto(data []byte) error {
	*m = FrameRequest{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.SessionID = int64(r.varint())
		case 2:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.Frame = append(m.Frame[:0], r.bytes()...)
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// FrameResponse carries a tensor response as one binary frame. For
// StepStream each message holds one stream-item frame and the final
// message holds the stream-end frame.
type FrameResponse struct {
	Frame []byte
}

// AppendProto appends the message's proto3 encoding to b.
func (m *FrameResponse) AppendProto(b []byte) []byte {
	b = appendBytesField(b, 1, m.Frame)
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *FrameResponse) UnmarshalProto(data []byte) error {
	*m = FrameResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.Frame = append(m.Frame[:0], r.bytes()...)
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// StoreResponse reports a successful context store.
type StoreResponse struct {
	StoredTokens int64
}

// AppendProto appends the message's proto3 encoding to b.
func (m *StoreResponse) AppendProto(b []byte) []byte {
	b = appendVarintField(b, 1, uint64(m.StoredTokens))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *StoreResponse) UnmarshalProto(data []byte) error {
	*m = StoreResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.StoredTokens = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// CloseSessionResponse acknowledges a session close.
type CloseSessionResponse struct {
	Status string
}

// AppendProto appends the message's proto3 encoding to b.
func (m *CloseSessionResponse) AppendProto(b []byte) []byte {
	b = appendStringField(b, 1, m.Status)
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *CloseSessionResponse) UnmarshalProto(data []byte) error {
	*m = CloseSessionResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.Status = string(r.bytes())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// HealthzRequest is the empty probe input.
type HealthzRequest struct {
}

// AppendProto appends the message's proto3 encoding to b.
func (m *HealthzRequest) AppendProto(b []byte) []byte {
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *HealthzRequest) UnmarshalProto(data []byte) error {
	*m = HealthzRequest{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		_ = num
		r.skip(wt)
	}
	return r.err
}

// HealthzResponse is the load-balancer probe body.
type HealthzResponse struct {
	Status       string
	OpenSessions int64
}

// AppendProto appends the message's proto3 encoding to b.
func (m *HealthzResponse) AppendProto(b []byte) []byte {
	b = appendStringField(b, 1, m.Status)
	b = appendVarintField(b, 2, uint64(m.OpenSessions))
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *HealthzResponse) UnmarshalProto(data []byte) error {
	*m = HealthzResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.Status = string(r.bytes())
		case 2:
			if wt != wireVarint {
				r.skip(wt)
				break
			}
			m.OpenSessions = int64(r.varint())
		default:
			r.skip(wt)
		}
	}
	return r.err
}

// StatsRequest is the empty stats input.
type StatsRequest struct {
}

// AppendProto appends the message's proto3 encoding to b.
func (m *StatsRequest) AppendProto(b []byte) []byte {
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *StatsRequest) UnmarshalProto(data []byte) error {
	*m = StatsRequest{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		_ = num
		r.skip(wt)
	}
	return r.err
}

// StatsResponse carries serve.StatsResponse as its JSON encoding: the
// stats document grows every release, and JSON keeps old clients
// tolerant of new fields without wire-contract churn.
type StatsResponse struct {
	StatsJSON []byte // JSON-encoded serve.StatsResponse
}

// AppendProto appends the message's proto3 encoding to b.
func (m *StatsResponse) AppendProto(b []byte) []byte {
	b = appendBytesField(b, 1, m.StatsJSON)
	return b
}

// UnmarshalProto replaces the message with the decoding of data.
func (m *StatsResponse) UnmarshalProto(data []byte) error {
	*m = StatsResponse{}
	r := reader{buf: data}
	for {
		num, wt, ok := r.tag()
		if !ok {
			break
		}
		switch num {
		case 1:
			if wt != wireBytes {
				r.skip(wt)
				break
			}
			m.StatsJSON = append(m.StatsJSON[:0], r.bytes()...)
		default:
			r.skip(wt)
		}
	}
	return r.err
}
