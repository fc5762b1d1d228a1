//go:build !race

package pager

const raceEnabled = false
