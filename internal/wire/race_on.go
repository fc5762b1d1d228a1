//go:build race

package wire

// raceEnabled reports a build under the race detector — the builds the
// -race suites run. See messagePool.put.
const raceEnabled = true
