package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// trafficResult is what the loopback phases measured.
type trafficResult struct {
	reads, submits           windowed
	metricsRoute             summary
	readBeside, submitBeside summary
	n200, n304, n202         int64
	sent, failed             int64
	walBytes                 int64
	reportText               []byte
}

func (t *trafficResult) ledger(m metricSet) {
	m.set("serve.read_304_ratio", ratio(float64(t.n304), float64(t.n200+t.n304)))
	m.set("serve.metrics_p50_us", t.metricsRoute.p50us)
	m.set("serve.read_p99_us", medianFloat(t.reads.p99us))
	m.set("serve.read_beside_submit_p50_us", t.readBeside.p50us)
	m.set("serve.read_beside_submit_p99_us", t.readBeside.p99us)
	m.set("serve.submit_p50_us", medianFloat(t.submits.p50us))
	m.set("serve.submit_p99_us", medianFloat(t.submits.p99us))
	m.set("serve.submit_beside_read_p50_us", t.submitBeside.p50us)
	m.set("serve.wal_bytes", float64(t.walBytes))
}

// runTraffic drives the three traffic phases against the published
// campaign from one generator, genConns keep-alive connections:
// (1) reads, closed loop; (2) writes, one connection, closed loop;
// (3) writes beside reads. It also performs the serving output checks:
// report.txt is fetched for the byte comparison, every ETag must be the
// same after the run as before it, and every 202 must be counted in
// prudentia_serve_submissions_accepted_total.
func runTraffic(r *run) (*trafficResult, error) {
	w, cfg, in, runs, res, spans, root := r.w, r.cfg, r.in, r.runs, r.res, r.spans, r.root
	addr := in.ln.Addr().String()
	nconn := genConns()
	clients := make([]*client, nconn)
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	latest := runs[len(runs)-1].res.Cycle
	first := max(1, latest-7) // History is 8
	mix, err := readMix(clients[0], first, latest)
	if err != nil {
		return nil, err
	}
	out := &trafficResult{}
	txt, err := clients[0].fetch(mix[1].plain)
	if err != nil {
		return nil, err
	}
	out.reportText = txt.body

	record := func(p phaseResult) error {
		sent, n200, n304, n202, failed := p.totals()
		out.sent += int64(sent)
		out.n200 += int64(n200)
		out.n304 += int64(n304)
		out.n202 += int64(n202)
		out.failed += int64(failed)
		res.PerConn[p.name] = p.perConn()
		if err := p.firstErr(); err != nil {
			return fmt.Errorf("phase %s: %w", p.name, err)
		}
		if lat, _ := p.merged(); len(lat) < cfg.scale.minSamples {
			return fmt.Errorf("phase %s finished with %d samples, fewer than %d: its percentiles would measure the scheduler, not the daemon",
				p.name, len(lat), cfg.scale.minSamples)
		}
		return nil
	}
	addSpans := func(p phaseResult, id int, name string, every int) {
		if spans == nil {
			return
		}
		for _, c := range p.conns {
			for i := 0; i < len(c.sent); i += every {
				start := time.Unix(0, c.sent[i])
				spans.add(name, id, start, start.Add(time.Duration(c.lat[i])))
			}
		}
	}

	// Phase 1: reads.
	id := spans.start("phase:reads", root)
	loops := make([]func() connResult, nconn)
	deadline := time.Now().Add(cfg.scale.readDur)
	for i := range loops {
		loops[i] = func() connResult { return readLoop(clients[i], mix, in.schedules[i], deadline) }
	}
	reads := runPhase("reads", loops)
	spans.end(id)
	// One request span in a hundred is kept: all of them would be a
	// 60 MB trace file per run.
	addSpans(reads, id, "GET", 100)
	if err := record(reads); err != nil {
		return nil, err
	}
	_, metricsLat := reads.merged()
	out.reads = cutByTime(reads.conns, cfg.scale.readWindows)
	out.metricsRoute = summarize(metricsLat, 0)

	// Phase 2: writes.
	id = spans.start("phase:writes", root)
	posts, pool := in.posts[:cfg.scale.submits], in.posts[cfg.scale.submits:]
	writes := runPhase("writes", []func() connResult{
		func() connResult { return submitLoop(clients[0], posts, time.Time{}) },
	})
	spans.end(id)
	addSpans(writes, id, "POST", 1)
	if err := record(writes); err != nil {
		return nil, err
	}
	out.submits = cutByCount(writes.conns[0], cfg.scale.submitBlock)

	// Phase 3: writes beside reads. Its numbers are per-layer only, so
	// only the traced pass runs it, after everything the end-to-end
	// metrics are taken from.
	if cfg.traced {
		id = spans.start("phase:writes_beside_reads", root)
		deadline = time.Now().Add(cfg.scale.besideDur)
		loops = []func() connResult{func() connResult { return submitLoop(clients[0], pool, deadline) }}
		for i := 1; i < nconn; i++ {
			loops = append(loops, func() connResult { return readLoop(clients[i], mix, in.schedules[nconn+i], deadline) })
		}
		beside := runPhase("writes_beside_reads", loops)
		spans.end(id)
		if err := record(beside); err != nil {
			return nil, err
		}
		out.submitBeside = summarize(beside.conns[0].lat, 0)
		var besideReads []int64
		for _, c := range beside.conns[1:] {
			besideReads = append(besideReads, c.lat...)
		}
		out.readBeside = summarize(besideReads, 0)
		if nconn < 2 {
			res.Notes = append(res.Notes, "one CPU: no connection was left to read beside the writer, serve.read_beside_submit_* are 0")
		}
	}

	// Serving output checks.
	for _, t := range mix {
		if t.etag == "" {
			continue
		}
		r, err := clients[0].fetch(t.plain)
		if err != nil {
			return nil, err
		}
		if r.etag != t.etag {
			res.problemf("ETag of %s changed during the run: %s then %s", t.path, t.etag, r.etag)
		}
	}
	if accepted := in.reg.Counter("prudentia_serve_submissions_accepted_total").Value(); accepted != out.n202 {
		res.problemf("%d submissions got a 202 but prudentia_serve_submissions_accepted_total is %d", out.n202, accepted)
	}
	if w.durable {
		if st, err := os.Stat(filepath.Join(in.dir, "state", "subs.wal")); err == nil {
			out.walBytes = st.Size()
		} else {
			res.problemf("durable daemon left no submission WAL: %v", err)
		}
	}
	return out, nil
}
