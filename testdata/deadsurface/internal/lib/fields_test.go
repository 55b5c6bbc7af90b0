package lib

import "testing"

// A test's read does not count: Conn.Last stays write-only.
func TestLast(t *testing.T) {
	c := NewConn("peer")
	c.Send("hi")
	if c.Last != "hi" {
		t.Fatal("last")
	}
}
