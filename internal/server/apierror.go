package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"marioh"
	"marioh/internal/admission"
	"marioh/internal/durability"
)

// Machine-readable error codes carried by every non-2xx /v1 response in
// the unified envelope {"error":{"code","message","retry_after_s?"}}.
// Clients switch on the code; the message is for humans.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeRateLimited   = "rate_limited"   // per-tenant token bucket empty
	CodeQuotaExceeded = "quota_exceeded" // per-tenant job/session/bytes quota
	CodeQueueFull     = "queue_full"
	CodeShuttingDown  = "shutting_down"
	CodeCancelled     = "cancelled" // the request's job was cancelled or timed out
	CodeStorage       = "storage"
	CodeInternal      = "internal"
)

// errorBody is the wire form inside the envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterS mirrors the Retry-After header (fractional seconds) on
	// 429 responses, so body-only clients see the delay too.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// errorEnvelope is the body of every non-2xx response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// APIError is the typed error the Go Client returns for any non-2xx
// response: callers switch on Code (or Status) instead of parsing
// message strings. It satisfies errors.As.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code (Code* constants).
	Code string
	// Message is the human-readable description from the server.
	Message string
	// RetryAfter is the server-advised delay before retrying (429 only;
	// zero otherwise).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: %s (%d %s, retry after %s)", e.Message, e.Status, e.Code, e.RetryAfter.Round(time.Millisecond))
	}
	return fmt.Sprintf("server: %s (%d %s)", e.Message, e.Status, e.Code)
}

// errStatus maps workload/registry errors to HTTP statuses: admission
// rejections throttle (429), an unknown model or a closed session is not
// found (404), storage faults are the server's (500), and everything else
// unrecognized is treated as a bad request.
func errStatus(err error) int {
	var aerr *admission.Error
	switch {
	case errors.As(err, &aerr):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrModelNotFound), errors.Is(err, marioh.ErrSessionClosed):
		// A deleted session is closed, so an apply that loses the race
		// to its DELETE answers as if it came after.
		return http.StatusNotFound
	case errors.Is(err, ErrSessionBusy):
		return http.StatusConflict
	case errors.Is(err, ErrSeqMismatch):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStorage), errors.Is(err, durability.ErrStorage):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// errCode picks the envelope code for a (status, err) pair.
func errCode(status int, err error) string {
	var aerr *admission.Error
	if errors.As(err, &aerr) {
		if aerr.Reason == admission.ReasonRate {
			return CodeRateLimited
		}
		return CodeQuotaExceeded
	}
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusServiceUnavailable:
		switch {
		case errors.Is(err, ErrShuttingDown):
			return CodeShuttingDown
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return CodeCancelled
		}
		return CodeQueueFull
	case http.StatusInternalServerError:
		if errors.Is(err, ErrStorage) || errors.Is(err, durability.ErrStorage) {
			return CodeStorage
		}
		return CodeInternal
	default:
		return CodeBadRequest
	}
}

// retryAfter extracts the server-advised retry delay from an admission
// rejection (zero for everything else).
func retryAfter(err error) time.Duration {
	var aerr *admission.Error
	if errors.As(err, &aerr) {
		return aerr.RetryAfter
	}
	return 0
}

// retryAfterHeader renders a delay for the Retry-After header: whole
// seconds, rounded up so "wait 200ms" does not become "retry now".
func retryAfterHeader(d time.Duration) string {
	return fmt.Sprintf("%d", int64(math.Ceil(d.Seconds())))
}
