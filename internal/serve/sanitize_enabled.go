//go:build quicknn_sanitize

package serve

import (
	"fmt"
	"sync/atomic"
)

// Snapshot lifecycle sanitizer (enabled build). Mirrors the DDR4
// protocol checker's philosophy for the epoch-snapshot subsystem: the
// refcount protocol has invariants the type system cannot state —
// an epoch is used only between acquire and release, released exactly
// once per acquisition, and never touched after its last reference
// drains. Violations here don't crash in production; they answer
// queries from a snapshot the engine believes is gone, which a -race
// run only catches if the retire side happens to write concurrently.
//
// Built with -tags quicknn_sanitize the sanitizer turns each violation
// into an immediate, named panic at the offending call site. The
// default build compiles the hooks to empty methods on an empty struct
// (sanitize_disabled.go) — zero bytes per epoch, zero instructions on
// the hot path.
type epochSanitizer struct {
	// retired latches when the last reference drains; every later use
	// is a lifecycle violation.
	retired atomic.Bool
}

// sanitizeEnabled reports whether the sanitizer is compiled in (true in
// this build); tests use it to assert the tag plumbing.
const sanitizeEnabled = true

// acquired fires after a successful tryAcquire: acquiring a retired
// epoch means the refcount resurrected, which tryAcquire must prevent.
func (s *epochSanitizer) acquired(e *epoch) {
	if s.retired.Load() {
		panic(fmt.Sprintf("serve: sanitizer: epoch %d acquired after retire (refcount resurrection)", e.id))
	}
}

// checkLive fires on each use of a pinned epoch (per request in
// runRequest):
// a retired epoch still being searched is a use-after-retire.
func (s *epochSanitizer) checkLive(e *epoch, op string) {
	if s.retired.Load() {
		panic(fmt.Sprintf("serve: sanitizer: use-after-retire of epoch %d during %s", e.id, op))
	}
}

// released fires after every refcount decrement: a negative count means
// some holder released twice.
func (s *epochSanitizer) released(e *epoch, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("serve: sanitizer: double release of epoch %d (refs=%d)", e.id, n))
	}
}

// retire latches the drained state; draining twice means two releases
// both observed zero, which the atomic decrement makes impossible
// unless the count was corrupted.
func (s *epochSanitizer) retire(e *epoch) {
	if !s.retired.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("serve: sanitizer: epoch %d retired twice", e.id))
	}
}
