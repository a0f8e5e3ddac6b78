// Package grpc is the gRPC transport over the serve.Service core: the
// same engine-facing surface the HTTP transport exposes, as the
// alaya.v1.AlayaDB service (see pb/alaya.proto).
//
// The transport speaks the standard gRPC-over-HTTP/2 wire protocol —
// POST to /alaya.v1.AlayaDB/<Method>, application/grpc+proto bodies of
// 5-byte length-prefixed protobuf messages, grpc-status/grpc-message
// trailers — over cleartext HTTP/2 (h2c) using only net/http: Go 1.24's
// Protocols knob enables unencrypted HTTP/2 on both http.Server and
// http.Transport, so no third-party gRPC stack is needed and standard
// gRPC clients in any language can connect with plaintext credentials.
//
// Tensor payloads (step, step_stream) ride inside proto bytes fields
// using the exact application/x-alaya-frame encoding of the HTTP binary
// wire, which makes results across the two transports bit-identical by
// construction — the transport-conformance suite in
// internal/serve/conformance holds both to that.
//
// Errors cross the wire as the typed serve kinds, twice: mapped onto
// canonical gRPC status codes by the CodeForKind table (the analog of
// serve.HTTPStatus), and verbatim in an alaya-kind trailer, because the
// code mapping is lossy — KindTooLarge and KindOverloaded both map to
// ResourceExhausted. Clients that know the trailer recover the exact
// kind; plain gRPC clients still get the right canonical code.
//
// Remote (remote.go) is the one client of the service in this repo: the
// typed mirror of Server, one method per serve.Core operation. The
// cluster router reaches its nodes and the SDK's gRPC mode reaches a
// daemon through it, so no program code outside this package builds or
// reads a protobuf message. ClientConn is the untyped RPC layer beneath.
package grpc

import (
	"fmt"

	"repro/internal/serve"
)

// Code is a canonical gRPC status code.
type Code uint32

// The canonical gRPC status codes (google.rpc.Code).
const (
	CodeOK                 Code = 0
	CodeCanceled           Code = 1
	CodeUnknown            Code = 2
	CodeInvalidArgument    Code = 3
	CodeDeadlineExceeded   Code = 4
	CodeNotFound           Code = 5
	CodeAlreadyExists      Code = 6
	CodePermissionDenied   Code = 7
	CodeResourceExhausted  Code = 8
	CodeFailedPrecondition Code = 9
	CodeAborted            Code = 10
	CodeOutOfRange         Code = 11
	CodeUnimplemented      Code = 12
	CodeInternal           Code = 13
	CodeUnavailable        Code = 14
	CodeDataLoss           Code = 15
	CodeUnauthenticated    Code = 16
)

var codeNames = map[Code]string{
	CodeOK: "OK", CodeCanceled: "Canceled", CodeUnknown: "Unknown",
	CodeInvalidArgument: "InvalidArgument", CodeDeadlineExceeded: "DeadlineExceeded",
	CodeNotFound: "NotFound", CodeAlreadyExists: "AlreadyExists",
	CodePermissionDenied: "PermissionDenied", CodeResourceExhausted: "ResourceExhausted",
	CodeFailedPrecondition: "FailedPrecondition", CodeAborted: "Aborted",
	CodeOutOfRange: "OutOfRange", CodeUnimplemented: "Unimplemented",
	CodeInternal: "Internal", CodeUnavailable: "Unavailable",
	CodeDataLoss: "DataLoss", CodeUnauthenticated: "Unauthenticated",
}

// String returns the canonical code name.
func (c Code) String() string {
	if n, ok := codeNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Code(%d)", uint32(c))
}

// kindCode maps the typed serve error kinds onto canonical gRPC status
// codes — one table, mirroring serve.HTTPStatus. Two kinds collapse onto
// ResourceExhausted (gRPC has no distinct too-large/backpressure codes);
// the alaya-kind trailer preserves the exact kind across the wire.
var kindCode = map[serve.Kind]Code{
	serve.KindBadRequest:       CodeInvalidArgument,
	serve.KindNotFound:         CodeNotFound,
	serve.KindConflict:         CodeFailedPrecondition,
	serve.KindMethodNotAllowed: CodeUnimplemented,
	serve.KindTooLarge:         CodeResourceExhausted,
	serve.KindUnsupportedMedia: CodeInvalidArgument,
	serve.KindOverloaded:       CodeResourceExhausted,
	serve.KindUnavailable:      CodeUnavailable,
	serve.KindInternal:         CodeInternal,
}

// CodeForKind maps a typed error kind to its gRPC status code; unknown
// kinds are Internal, exactly as serve.HTTPStatus maps them to 500.
func CodeForKind(k serve.Kind) Code {
	if c, ok := kindCode[k]; ok {
		return c
	}
	return CodeInternal
}

// KindForCode recovers a serve kind from a bare status code — the
// fallback when a peer did not send the alaya-kind trailer. Lossy where
// the forward mapping collapses: ResourceExhausted reads as overloaded
// (the retryable interpretation).
func KindForCode(c Code) serve.Kind {
	switch c {
	case CodeInvalidArgument:
		return serve.KindBadRequest
	case CodeNotFound:
		return serve.KindNotFound
	case CodeFailedPrecondition:
		return serve.KindConflict
	case CodeUnimplemented:
		return serve.KindMethodNotAllowed
	case CodeResourceExhausted:
		return serve.KindOverloaded
	case CodeUnavailable:
		return serve.KindUnavailable
	}
	return serve.KindInternal
}

// StatusError is a non-OK gRPC status: one the server sent, or one the
// client assigns to a call that got no answer (unavailable), an HTTP
// status with no gRPC body (serve.UntypedStatusKind) or a malformed answer
// (internal). Kind is the exact serve kind when the server sent the
// alaya-kind trailer, else KindForCode's reconstruction.
type StatusError struct {
	Code    Code
	Message string
	Kind    serve.Kind
}

func (e *StatusError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("rpc error: code = %s", e.Code)
	}
	return fmt.Sprintf("rpc error: code = %s desc = %s", e.Code, e.Message)
}

// statusFromError converts a service error into wire status parts.
func statusFromError(err error) (code Code, msg string, kind serve.Kind) {
	env := serve.Envelope(err)
	return CodeForKind(env.Kind), env.Error, env.Kind
}
