// Package rules registers the full quicknnlint analyzer suite. The
// command (cmd/quicknnlint) and the repo self-test both consume All, so
// the binary and `go test ./...` can never disagree about which rules are
// in force.
package rules

import (
	"github.com/quicknn/quicknn/internal/lint"
	"github.com/quicknn/quicknn/internal/lint/atomicfield"
	"github.com/quicknn/quicknn/internal/lint/ctxfirst"
	"github.com/quicknn/quicknn/internal/lint/cycleint"
	"github.com/quicknn/quicknn/internal/lint/nakedrand"
	"github.com/quicknn/quicknn/internal/lint/panicmsg"
	"github.com/quicknn/quicknn/internal/lint/recordpath"
	"github.com/quicknn/quicknn/internal/lint/scratchleak"
	"github.com/quicknn/quicknn/internal/lint/walltime"
)

// All lists every analyzer the quicknnlint multichecker runs. The last
// three are typed-only (NeedsTypes): they run under the typed driver and
// are skipped in degraded syntactic mode.
var All = []*lint.Analyzer{
	atomicfield.Analyzer,
	ctxfirst.Analyzer,
	cycleint.Analyzer,
	nakedrand.Analyzer,
	panicmsg.Analyzer,
	recordpath.Analyzer,
	scratchleak.Analyzer,
	walltime.Analyzer,
}
