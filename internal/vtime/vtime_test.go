package vtime

import "testing"

func TestRealClockMonotonicEnough(t *testing.T) {
	var c Clock = Real{}
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("Real clock went backwards: %v then %v", a, b)
	}
}
