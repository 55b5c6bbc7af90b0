package lib

import "encoding/json"

// Conn holds the write-only rule's cases.
type Conn struct {
	// addr is set in NewConn and read by Addr: not flagged.
	addr string
	// opened is set in NewConn and read by nothing: rule D flags it.
	opened bool
	// sends is only ever incremented: rule D flags it.
	sends int
	// Last is set by Send and read only by fields_test.go: rule D flags it.
	Last string
	// Trace is never read, but its tag says reflection may: not flagged.
	Trace string `json:"trace"`
}

// NewConn returns a connection to addr.
func NewConn(addr string) *Conn { return &Conn{addr: addr, opened: true, Trace: "on"} }

// Addr returns the address NewConn was given.
func (c *Conn) Addr() string { return c.addr }

// Send records msg and returns it encoded as an Event.
func (c *Conn) Send(msg string) []byte {
	c.sends++
	c.Last = msg
	b, _ := json.Marshal(Event{Body: msg})
	return b
}

// Event is passed to json.Marshal, which reads its untagged Body by
// reflection: not flagged.
type Event struct {
	Body string
}

// Gauge's level is read only through &g.level: not flagged.
type Gauge struct {
	level int
}

// Bump raises the level and returns it.
func (g *Gauge) Bump() int {
	g.level = 1
	return raise(&g.level)
}

func raise(p *int) int {
	*p++
	return *p
}

// Meter's embedded Gauge is set in a literal and read only through the
// promoted Bump: not flagged.
type Meter struct {
	Gauge
}

// NewMeter returns a meter at level zero.
func NewMeter() *Meter { return &Meter{Gauge: Gauge{}} }

// Header is copied by Reply.
type Header struct {
	// Seq is read to number the reply: not flagged.
	Seq int
	// Echo's one read is the copy in Reply: rule D flags it.
	Echo int
}

// Reply returns the header answering src.
func Reply(src Header) Header {
	var dst Header
	dst.Seq = src.Seq + 1
	dst.Echo = src.Echo
	return dst
}
