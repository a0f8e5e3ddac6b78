package serve

import (
	"fmt"
	"net/http"
)

// Kind classifies a service error. The service core reports failures
// exclusively through *Error values carrying a Kind; the HTTP layer maps
// kinds to status codes in exactly one place (HTTPStatus), so no handler
// invents its own status or envelope shape.
type Kind string

const (
	// KindBadRequest marks malformed or out-of-range input.
	KindBadRequest Kind = "bad_request"
	// KindNotFound marks a missing session or unknown action.
	KindNotFound Kind = "not_found"
	// KindConflict marks a request valid in form but rejected by current
	// state (e.g. storing a session whose KV is not fully prefilled).
	KindConflict Kind = "conflict"
	// KindMethodNotAllowed marks a known path hit with the wrong verb.
	KindMethodNotAllowed Kind = "method_not_allowed"
	// KindTooLarge marks a request body over the server's byte limit.
	KindTooLarge Kind = "too_large"
	// KindUnsupportedMedia marks a request body in a codec the server
	// does not speak.
	KindUnsupportedMedia Kind = "unsupported_media"
	// KindOverloaded marks a request shed by admission control: the
	// decode scheduler's bounded queue is full and the client should back
	// off and retry against the same server.
	KindOverloaded Kind = "overloaded"
	// KindUnavailable marks a request refused because the service is
	// shutting down (drain). Distinct from KindOverloaded so a load
	// balancer can tell "this replica is going away — resubmit elsewhere"
	// (503/UNAVAILABLE) from "this replica is busy — back off and retry
	// here" (429/RESOURCE_EXHAUSTED).
	KindUnavailable Kind = "unavailable"
	// KindInternal marks a server-side failure.
	KindInternal Kind = "internal"
)

// Error is the service's typed error. Matching on kind works through
// errors.Is against the exported sentinels (ErrNotFound, ErrBadRequest, …).
type Error struct {
	Kind    Kind
	Message string
}

func (e *Error) Error() string {
	if e.Message == "" {
		return string(e.Kind)
	}
	return e.Message
}

// Is reports kind equality, so errors.Is(err, ErrNotFound) matches any
// not-found error regardless of message.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Kind == e.Kind && t.Message == ""
}

// Sentinels for errors.Is matching. Never returned directly: service
// methods wrap them with a message via the constructors below.
var (
	ErrBadRequest       = &Error{Kind: KindBadRequest}
	ErrNotFound         = &Error{Kind: KindNotFound}
	ErrConflict         = &Error{Kind: KindConflict}
	ErrMethodNotAllowed = &Error{Kind: KindMethodNotAllowed}
	ErrTooLarge         = &Error{Kind: KindTooLarge}
	ErrUnsupportedMedia = &Error{Kind: KindUnsupportedMedia}
	ErrOverloaded       = &Error{Kind: KindOverloaded}
	ErrUnavailable      = &Error{Kind: KindUnavailable}
	ErrInternal         = &Error{Kind: KindInternal}
)

func errf(kind Kind, format string, args ...interface{}) *Error {
	return &Error{Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// BadRequestf builds a KindBadRequest error.
func BadRequestf(format string, args ...interface{}) *Error {
	return errf(KindBadRequest, format, args...)
}

// NotFoundf builds a KindNotFound error.
func NotFoundf(format string, args ...interface{}) *Error {
	return errf(KindNotFound, format, args...)
}

// Conflictf builds a KindConflict error.
func Conflictf(format string, args ...interface{}) *Error {
	return errf(KindConflict, format, args...)
}

// Overloadedf builds a KindOverloaded error.
func Overloadedf(format string, args ...interface{}) *Error {
	return errf(KindOverloaded, format, args...)
}

// Unavailablef builds a KindUnavailable error.
func Unavailablef(format string, args ...interface{}) *Error {
	return errf(KindUnavailable, format, args...)
}

// Internalf builds a KindInternal error.
func Internalf(format string, args ...interface{}) *Error {
	return errf(KindInternal, format, args...)
}

// HTTPStatus is the one place service error kinds become HTTP statuses.
func HTTPStatus(kind Kind) int {
	switch kind {
	case KindBadRequest:
		return http.StatusBadRequest
	case KindNotFound:
		return http.StatusNotFound
	case KindConflict:
		return http.StatusConflict
	case KindMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case KindTooLarge:
		return http.StatusRequestEntityTooLarge
	case KindUnsupportedMedia:
		return http.StatusUnsupportedMediaType
	case KindOverloaded:
		return http.StatusTooManyRequests
	case KindUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// UntypedStatusKind classifies an HTTP status that arrived with no typed
// error body, on either wire: a proxy or load balancer answered, not a
// Core. 502, 503 and 504 are unavailable (resubmit elsewhere), 429 is
// overloaded (back off), and any other status is internal. A response
// that arrived but does not decode is internal too; only a request that
// got no response at all is unavailable.
func UntypedStatusKind(status int) Kind {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return KindUnavailable
	case http.StatusTooManyRequests:
		return KindOverloaded
	}
	return KindInternal
}

// ErrorEnvelope is the JSON error body every failing response carries:
// the human-readable message plus the machine-matchable kind.
type ErrorEnvelope struct {
	Error string `json:"error"`
	Kind  Kind   `json:"kind"`
}

// Envelope converts any error into the wire envelope, classifying plain
// errors as internal.
func Envelope(err error) ErrorEnvelope {
	if se, ok := err.(*Error); ok {
		return ErrorEnvelope{Error: se.Error(), Kind: se.Kind}
	}
	return ErrorEnvelope{Error: err.Error(), Kind: KindInternal}
}
