package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// Trace IDs join the two observability streams — spans and candidate
// events — to the request (or CLI invocation) that caused them. The ID
// is an opaque hex string: faccd mints one per compile request
// (honouring an X-Facc-Trace header when the client supplies one), the
// CLIs mint one per run, and everything downstream inherits it through
// context.Context.

// traceKey is the context key for the trace ID; unexported so only this
// package can write it.
type traceKey struct{}

// NewTraceID returns a fresh 16-byte random trace ID in lowercase hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand only fails on a broken platform; an all-zero ID
		// still joins streams within one process.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithTraceID returns a context carrying the trace ID. An empty ID
// returns ctx unchanged.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFrom returns the trace ID carried by ctx, or "" if none.
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ValidTraceID reports whether a client-supplied trace ID is safe to
// stamp on spans, journal lines, Prometheus exemplar comments and
// persisted store entries: 1..64 bytes drawn from [A-Za-z0-9._-].
// Anything else must be rejected or regenerated by the caller before
// it pollutes every export that carries the ID verbatim.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}
