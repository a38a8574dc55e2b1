package p4rt

import (
	"errors"
	"fmt"
)

// Typed error taxonomy for the control protocol. Every error returned by
// the client wraps exactly one of these sentinels, so callers branch with
// errors.Is instead of string matching:
//
//   - ErrTimeout: an RPC (or the dial handshake) exceeded its deadline.
//     The connection may still be healthy; retrying is reasonable.
//   - ErrConnClosed: the connection is gone — closed locally, reset by the
//     peer, or torn down mid-call. Pending calls never hang on it; they
//     fail promptly with this error. Reconnect before retrying.
//   - ErrRejected: the switch processed the request and refused it
//     (invalid entry, unknown action, table error). Retrying the same
//     request will fail again; this is a caller bug or a stale program.
//   - ErrOversized: a frame exceeded MaxFrame in either direction. The
//     request can never succeed as encoded.
//   - ErrMalformed: a frame's envelope or body is not the JSON its type
//     calls for (or a request body would not marshal). Frame boundaries
//     are length-prefixed, so a malformed body leaves the stream in step
//     and the connection usable; a malformed envelope ends the read loop.
var (
	ErrTimeout    = errors.New("p4rt: deadline exceeded")
	ErrConnClosed = errors.New("p4rt: connection closed")
	ErrRejected   = errors.New("p4rt: request rejected")
	ErrOversized  = errors.New("p4rt: frame oversized")
	ErrMalformed  = errors.New("p4rt: malformed message")
)

// RejectError carries the switch-side reason for a refused request. It
// matches ErrRejected under errors.Is.
type RejectError struct {
	Op     MsgType // the request type the switch refused
	Reason string  // server-side error text
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("p4rt: %s rejected by switch: %s", e.Op, e.Reason)
}

// Is reports that a RejectError is an ErrRejected.
func (e *RejectError) Is(target error) bool { return target == ErrRejected }
