package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"prudentia/internal/sim"
)

// The load generator talks HTTP/1.1 over raw keep-alive net.Conns with
// pre-serialised requests and a reply parser that reads only what it
// must (status, framing), so client cost does not hide the server. It
// is a closed loop: pollers and submitters each wait for their reply
// before sending again. Traffic crosses the host loopback, not a link.

// genConns is the number of generator connections (and goroutines): at
// most one per CPU and at most four, so the generator cannot occupy
// more of the host than the daemon it measures.
func genConns() int { return min(runtime.NumCPU(), 4) }

// client is one keep-alive connection.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// reply is what fetch keeps of a response; the hot path keeps only the
// status.
type reply struct {
	status int
	etag   string
	body   []byte
}

// do sends one pre-serialised request and consumes the reply, returning
// its status code.
func (c *client) do(req []byte) (int, error) {
	r, err := c.roundTrip(req, false)
	return r.status, err
}

// fetch is do for the checks outside the timed loops: it keeps the
// ETag and the body.
func (c *client) fetch(req []byte) (reply, error) { return c.roundTrip(req, true) }

func (c *client) roundTrip(req []byte, keep bool) (reply, error) {
	var r reply
	if _, err := c.conn.Write(req); err != nil {
		return r, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 {
		return r, fmt.Errorf("short status line %q", line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, "content-length:"):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len("content-length:"):]))); err != nil {
				return r, fmt.Errorf("header %q: %w", line, err)
			}
		case hasPrefixFold(line, "transfer-encoding:"):
			chunked = bytes.Contains(line, []byte("chunked"))
		case keep && hasPrefixFold(line, "etag:"):
			r.etag = string(bytes.TrimSpace(line[len("etag:"):]))
		}
	}
	var sink io.Writer = io.Discard
	var body bytes.Buffer
	if keep {
		sink = &body
	}
	switch {
	case r.status == 304 || r.status == 204:
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return r, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return r, fmt.Errorf("chunk size %q: %w", line, err)
			}
			if _, err := io.CopyN(sink, c.br, size); err != nil {
				return r, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return r, err
			}
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if _, err := io.CopyN(sink, c.br, int64(length)); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("reply with status %d has neither a length nor chunks", r.status)
	}
	r.body = body.Bytes()
	return r, nil
}

func hasPrefixFold(line []byte, lowerPrefix string) bool {
	return len(line) >= len(lowerPrefix) && bytes.EqualFold(line[:len(lowerPrefix)], []byte(lowerPrefix))
}

func getRequest(target, etag string) []byte {
	s := "GET " + target + " HTTP/1.1\r\nHost: bench\r\n"
	if etag != "" {
		s += "If-None-Match: " + etag + "\r\n"
	}
	return []byte(s + "\r\n")
}

// accessCode is one of the codes the paper's Appendix A publishes and
// core.NewWatchdog carries.
const accessCode = "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ"

// submitTenants is how many tenants the submissions are spread over.
const submitTenants = 8

func postRequest(i int) []byte {
	body := fmt.Sprintf(`{"url":"https://example.com/page/%d","access_code":%q,"tenant":"tenant-%d"}`,
		i, accessCode, i%submitTenants)
	return []byte(fmt.Sprintf("POST /api/v1/submissions HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body))
}

// readTarget is one route of the read mix, with its request serialised
// both plain and, for ETag'd artifacts, conditional.
type readTarget struct {
	path        string
	plain, cond []byte
	etag        string
}

// readMix builds the eight-route mix the ISSUE names and learns each
// artifact's ETag with one plain fetch per route. latest and first are
// retained cycle numbers for the two history reads.
func readMix(c *client, first, latest int) ([]*readTarget, error) {
	paths := [mixRoutes]string{
		"/api/v1/report",
		"/api/v1/report.txt",
		"/api/v1/heatmap",
		"/api/v1/cycles",
		"/api/v1/faults",
		fmt.Sprintf("/api/v1/report?cycle=%d", latest),
		fmt.Sprintf("/api/v1/heatmap?cycle=%d", first),
		"/metrics",
	}
	var mix []*readTarget
	for _, p := range paths {
		t := &readTarget{path: p, plain: getRequest(p, "")}
		r, err := c.fetch(t.plain)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", p, err)
		}
		if r.status != 200 {
			return nil, fmt.Errorf("GET %s: status %d", p, r.status)
		}
		if r.etag != "" {
			t.etag = r.etag
			t.cond = getRequest(p, r.etag)
		}
		mix = append(mix, t)
	}
	return mix, nil
}

// metricsIndex is /metrics in readMix: the one uncached route.
const metricsIndex = mixRoutes - 1

// connResult is what one generator goroutine measured.
type connResult struct {
	lat        []int64 // ns per completed request
	sent       []int64 // unix ns at which each of them was sent
	metricsLat []int64 // the /metrics subset
	n200, n304 int
	n202       int
	failed     int
	err        error
}

// pick is one entry of a connection's read schedule: which route of the
// mix, and whether the request carries the route's ETag.
type pick struct {
	route int
	cond  bool
}

// mixRoutes is the number of routes in readMix.
const mixRoutes = 8

// readSchedule draws a connection's sequence of routes, with half of
// the requests asking conditionally (which only artifact routes, having
// an ETag, then do). It is part of the inputs a run makes from its seed
// at set-up; the loop cycles through it, because drawing per request
// would put the generator's RNG on the measured path.
func readSchedule(rng *sim.RNG) []pick {
	sched := make([]pick, 4096)
	for i := range sched {
		sched[i] = pick{route: rng.Intn(mixRoutes), cond: rng.Intn(2) == 0}
	}
	return sched
}

// readLoop polls the mix in the order of the schedule until the
// deadline.
func readLoop(c *client, mix []*readTarget, schedule []pick, deadline time.Time) connResult {
	// Room for 60k requests a second on this connection, so that the
	// buffers do not grow (and leave garbage) inside the timed loop.
	room := int(time.Until(deadline).Seconds()*60_000) + 1024
	res := connResult{lat: make([]int64, 0, room), sent: make([]int64, 0, room)}
	type request struct {
		req     []byte
		metrics bool
	}
	sched := make([]request, len(schedule))
	for i, p := range schedule {
		t := mix[p.route]
		req := t.plain
		if p.cond && t.cond != nil {
			req = t.cond
		}
		sched[i] = request{req: req, metrics: p.route == metricsIndex}
	}
	for i := 0; ; i++ {
		p := sched[i%len(sched)]
		t0 := time.Now()
		if !t0.Before(deadline) {
			return res
		}
		status, err := c.do(p.req)
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			res.failed++
			res.err = err
			return res
		}
		switch status {
		case 200:
			res.n200++
		case 304:
			res.n304++
		default:
			res.failed++
		}
		res.lat = append(res.lat, d)
		res.sent = append(res.sent, t0.UnixNano())
		if p.metrics {
			res.metricsLat = append(res.metricsLat, d)
		}
	}
}

// submitLoop posts reqs in order, once each; with a deadline it cycles
// through them until the deadline instead.
func submitLoop(c *client, reqs [][]byte, deadline time.Time) connResult {
	res := connResult{lat: make([]int64, 0, len(reqs)), sent: make([]int64, 0, len(reqs))}
	for i := 0; ; i++ {
		if deadline.IsZero() && i == len(reqs) {
			return res
		}
		t0 := time.Now()
		if !deadline.IsZero() && !t0.Before(deadline) {
			return res
		}
		status, err := c.do(reqs[i%len(reqs)])
		d := time.Since(t0).Nanoseconds()
		if err != nil {
			res.failed++
			res.err = err
			return res
		}
		if status == 202 {
			res.n202++
		} else {
			res.failed++
		}
		res.lat = append(res.lat, d)
		res.sent = append(res.sent, t0.UnixNano())
	}
}

// phaseResult is one traffic phase: every connection's result and the
// wall the phase took.
type phaseResult struct {
	name    string
	conns   []connResult
	elapsed float64
}

func (p phaseResult) merged() (lat, metricsLat []int64) {
	for _, c := range p.conns {
		lat = append(lat, c.lat...)
		metricsLat = append(metricsLat, c.metricsLat...)
	}
	return lat, metricsLat
}

// sent counts requests written; completed those that got a reply with
// an expected status (200, 304 or 202); failed the rest, transport
// errors included.
func (p phaseResult) totals() (sent, n200, n304, n202, failed int) {
	for _, c := range p.conns {
		n200 += c.n200
		n304 += c.n304
		n202 += c.n202
		failed += c.failed
	}
	return n200 + n304 + n202 + failed, n200, n304, n202, failed
}

func (p phaseResult) firstErr() error {
	for _, c := range p.conns {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// perConn lists how many requests each connection completed, so a
// starved connection is visible.
func (p phaseResult) perConn() []int {
	out := make([]int, len(p.conns))
	for i, c := range p.conns {
		out[i] = len(c.lat)
	}
	return out
}

// runPhase runs one goroutine per loop and waits for all of them. The
// goroutines carry the pprof label role=gen, which is how the traced
// pass measures the generator's share of process CPU.
func runPhase(name string, loops []func() connResult) phaseResult {
	res := phaseResult{name: name, conns: make([]connResult, len(loops))}
	start := time.Now()
	var wg sync.WaitGroup
	for i, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("role", "gen"), func(context.Context) {
				res.conns[i] = loop()
			})
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	return res
}

// probeUnderCycle polls /healthz on its own connection every interval
// until stop closes: what a reader waits while cycles own the CPUs.
// Traced pass only, so the end-to-end cycle numbers are not disturbed.
func probeUnderCycle(addr string, interval time.Duration, stop <-chan struct{}) connResult {
	var res connResult
	c, err := dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer c.close()
	req := getRequest("/healthz", "")
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return res
		case <-tick.C:
		}
		t0 := time.Now()
		status, err := c.do(req)
		if err != nil {
			res.failed++
			res.err = err
			return res
		}
		if status == 200 {
			res.n200++
		} else {
			res.failed++
		}
		res.lat = append(res.lat, time.Since(t0).Nanoseconds())
	}
}
