// Package vtime abstracts the passage of time so that the same cluster
// management code can run against the operating-system clock in a live
// deployment or against a discrete-event simulation clock in experiments.
//
// The paper's evaluation (CIDR 2007, §5) simulated clusters of up to 10,000
// virtual machines by inflating the virtual-machine-to-physical-machine
// ratio on 50 real nodes, and names "simulation-modeling techniques" as the
// way to push past testbed limits. Virtual time is this repository's
// realization of that technique: an 8-hour experiment runs in seconds while
// every heartbeat and job transition still flows through the real CAS and
// SQL code paths. The virtual clock itself is internal/sim's Engine; this
// package holds only what both sides agree on.
package vtime

import "time"

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now reports the current instant on this clock.
	Now() time.Time
}

// Real is a Clock backed by the operating-system clock.
type Real struct{}

// Now implements Clock using time.Now.
func (Real) Now() time.Time { return time.Now() }

// Epoch is the conventional start instant for simulated experiments. Using
// a fixed epoch keeps simulation traces reproducible across runs.
var Epoch = time.Date(2006, time.October, 1, 0, 0, 0, 0, time.UTC)
