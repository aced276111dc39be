package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// Error is a typed API error: every failure a handler can produce
// carries an HTTP status and a stable machine-readable code, so that
// client mistakes (unknown app, unknown model, out-of-range P-state,
// malformed JSON) surface as 4xx responses and only genuine server
// faults surface as 5xx.
type Error struct {
	// Status is the HTTP status code to respond with.
	Status int
	// Code is a stable machine-readable identifier, e.g. "unknown_app".
	Code string
	// Message is the human-readable explanation.
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Stable error codes returned in response bodies.
const (
	CodeBadRequest = "bad_request"
	// CodeBodyTooLarge marks a request body over the package's size
	// bound; it is the one typed 413.
	CodeBodyTooLarge = "body_too_large"
	CodeUnknownModel = "unknown_model"
	CodeUnknownApp   = "unknown_app"
	CodeBadPState    = "bad_pstate"
	CodeTimeout      = "timeout"
	CodeInternal     = "internal"
	// CodeAdaptationDisabled marks calls to the adaptation endpoints on
	// a server started without the adaptation loop.
	CodeAdaptationDisabled = "adaptation_disabled"
	// CodeTracingDisabled marks calls to /v1/traces on a server started
	// with the trace ring disabled.
	CodeTracingDisabled = "tracing_disabled"
	// CodeSLODisabled marks calls to /v1/slo on a server started with
	// SLO tracking disabled.
	CodeSLODisabled = "slo_disabled"
	// CodeDraining marks requests shed because the server is draining
	// for shutdown. The response carries a Retry-After header so a
	// routing tier can distinguish "shedding, come back" from "dead,
	// eject" and re-route without ejecting the backend.
	CodeDraining = "draining"
)

func badRequest(code, format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

func internalError(err error) *Error {
	return &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// asError coerces any error to an *Error, defaulting to a 500 so that
// unexpected failures are never misreported as client mistakes.
func asError(err error) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	return internalError(err)
}
