//go:build race

package main

// raceEnabled lets the AllocsPerRun guards skip under the race detector,
// whose instrumentation inserts allocations the production build never
// performs.
const raceEnabled = true
