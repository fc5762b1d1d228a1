//go:build race

package sqldb

// raceEnabled reports a build under the race detector — the builds the
// -race suites run. See Rows.release.
const raceEnabled = true
