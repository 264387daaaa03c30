// Command quicknnlint is the repository's multichecker: it applies the
// custom analyzer suite (internal/lint/rules) that enforces the
// simulation invariants documented in docs/invariants.md and
// docs/lint.md —
//
//	atomicfield: sync/atomic'd struct fields atomic at every site + aligned
//	ctxfirst:    context.Context first parameter, never a struct field
//	cycleint:    cycle/tCK arithmetic in timing-model packages stays integer
//	nakedrand:   no global math/rand state outside tests
//	panicmsg:    library panics carry a "pkg: " prefix
//	recordpath:  flight-recorder record paths stay allocation-free and flat
//	scratchleak: pooled *Scratch reaches its Put on every return path
//	walltime:    no wall-clock calls in simulation packages
//
// Usage:
//
//	go run ./cmd/quicknnlint ./...
//
// Package patterns are accepted for familiarity with go vet, but the
// checker always analyzes the whole module containing the working
// directory. By default it type-checks the module with the stdlib-only
// go/types loader and runs the typed analyzers; packages that fail
// type-checking are reported (analyzer "typecheck") and still analyzed
// with partial information — diagnostics are aggregated across ALL
// packages and the process exits non-zero once, at the end, never on
// the first broken package.
//
// Flags:
//
//	-list       list registered analyzers and exit
//	-syntactic  skip type-checking (parse-only degraded mode)
//	-tags a,b   extra build tags for file selection (e.g. race,quicknn_sanitize)
//
// Suppress an individual finding with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above (the reason is mandatory).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/quicknn/quicknn/internal/lint"
	"github.com/quicknn/quicknn/internal/lint/rules"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	syntactic := flag.Bool("syntactic", false, "skip type-checking; run parse-only analyzers")
	tags := flag.String("tags", "", "comma-separated extra build tags for file selection")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: quicknnlint [-list] [-syntactic] [-tags a,b] [packages]\n\nAnalyzes the enclosing module regardless of the package pattern.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range rules.All {
			mode := "typed+syntactic"
			if a.NeedsTypes {
				mode = "typed-only"
			}
			fmt.Printf("%-12s %-16s %s\n", a.Name, mode, a.Doc)
		}
		return
	}
	if err := run(*syntactic, *tags); err != nil {
		fmt.Fprintln(os.Stderr, "quicknnlint:", err)
		os.Exit(2)
	}
}

// run analyzes the enclosing module and prints the aggregated
// diagnostics; a non-empty report exits with status 1 like go vet.
func run(syntactic bool, tags string) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	opts := lint.Options{
		Syntactic: syntactic,
		Analyzers: rules.All,
	}
	if tags != "" {
		opts.Tags.Extra = strings.Split(tags, ",")
	}
	res, err := lint.Analyze(wd, opts)
	if err != nil {
		return err
	}
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if n := len(res.Diags); n > 0 {
		fmt.Fprintf(os.Stderr, "quicknnlint: %d issue(s) across %d package(s) in %s (see docs/invariants.md)\n",
			n, res.Packages, res.Module)
		os.Exit(1)
	}
	return nil
}
