//go:build race

package pager

// raceEnabled reports a build under the race detector — the builds the
// -race suites run. See Pool.recycleLocked.
const raceEnabled = true
