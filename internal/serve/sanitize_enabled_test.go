//go:build quicknn_sanitize

package serve

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// mustPanic runs f and returns the recovered panic message, failing the
// test if f returns normally or panics with a non-string value.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected sanitizer panic, got none")
			}
			s, ok := r.(string)
			if !ok {
				t.Fatalf("sanitizer panicked with %T (%v), want string", r, r)
			}
			msg = s
		}()
		f()
	}()
	return msg
}

func noRetire(*epoch) {}

// TestSanitizerCatchesUseAfterRetire injects a deterministic
// use-after-retire: a reader goroutine touches a live epoch, then is
// held at a channel barrier while the main goroutine drains the last
// reference, then touches the epoch again. The second touch must panic
// with the epoch's id and the offending operation. Run under -race this
// also proves the sanitizer's own state is data-race-free against the
// retiring goroutine.
func TestSanitizerCatchesUseAfterRetire(t *testing.T) {
	ep := newEpoch(42, nil, 0)

	readerReady := make(chan struct{})
	retired := make(chan struct{})
	caught := make(chan interface{}, 1)

	go func() {
		// First touch happens while the engine reference is still held:
		// must be silent.
		ep.san.checkLive(ep, "query")
		close(readerReady)
		<-retired
		// The epoch has now drained; this is the injected bug. Recover
		// here and assert on the main goroutine (t.Fatal is only legal
		// from the test goroutine).
		defer func() { caught <- recover() }()
		ep.san.checkLive(ep, "query")
	}()

	<-readerReady
	ep.release(noRetire) // drops the count 1 -> 0, latching retired
	close(retired)

	r := <-caught
	if r == nil {
		t.Fatal("expected sanitizer panic on use after retire, got none")
	}
	msg, ok := r.(string)
	if !ok {
		t.Fatalf("sanitizer panicked with %T (%v), want string", r, r)
	}
	if !strings.Contains(msg, "use-after-retire of epoch 42") || !strings.Contains(msg, "query") {
		t.Fatalf("unexpected sanitizer message: %q", msg)
	}
}

// TestSanitizerCatchesDoubleRelease releases an epoch's only reference
// twice; the second decrement drives the count negative, which the
// sanitizer names as a double release.
func TestSanitizerCatchesDoubleRelease(t *testing.T) {
	ep := newEpoch(7, nil, 0)
	ep.release(noRetire)
	msg := mustPanic(t, func() { ep.release(noRetire) })
	if !strings.Contains(msg, "double release of epoch 7") {
		t.Fatalf("unexpected sanitizer message: %q", msg)
	}
}

// TestSanitizerAllowsAcquireRaceLoser pins that the legal outcome of
// racing a frame swap — tryAcquire observing a drained epoch — is a
// clean false, not a sanitizer report.
func TestSanitizerAcquireAfterRetireFails(t *testing.T) {
	ep := newEpoch(3, nil, 0)
	ep.release(noRetire)
	if ep.tryAcquire() {
		t.Fatal("tryAcquire succeeded on a drained epoch")
	}
}

// TestSanitizerCleanUnderLoad runs a real engine through concurrent
// frame swaps and query batches with the sanitizer armed: the correct
// protocol must produce zero sanitizer reports (no false positives),
// including under -race.
func TestSanitizerCleanUnderLoad(t *testing.T) {
	if !sanitizeEnabled {
		t.Fatal("sanitizer tag plumbing broken: sanitizeEnabled is false under quicknn_sanitize")
	}
	sink := obs.NewSink("sanitize-test")
	e := NewEngine(Config{
		QueueDepth: 1024,
		MaxBatch:   16,
		MaxWindow:  200 * time.Microsecond,
		Workers:    4,
		Obs:        sink,
	})
	rng := rand.New(rand.NewSource(11))
	mustAdvance(t, e, 1, 400, rng)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				queries := make([]quicknn.Point, 4)
				for i := range queries {
					queries[i] = quicknn.Point{X: qrng.Float32() * 100, Y: qrng.Float32() * 100}
				}
				if _, err := e.Do(context.Background(), Submission{Queries: queries, Opts: quicknn.QueryOptions{K: 3}}); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	for f := 2; f <= 10; f++ {
		mustAdvance(t, e, f, 400, rng)
	}
	close(stop)
	wg.Wait()
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
