package fleet

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

const testFP = 0xfee1_600d

func testCatalog() []services.Service {
	return []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
	}
}

func testSettings() []netem.Config {
	return []netem.Config{netem.HighlyConstrained()}
}

// testOptions mirrors what Watchdog.SettingOptions would derive, shrunk
// to unit-test speed. Both the workers and the serial reference use it,
// which is the byte-identity precondition.
func testOptions(cycle, setting int) core.SchedulerOptions {
	o := core.PaperOptions(testSettings()[setting])
	o.MinTrials, o.MaxTrials, o.Step = 2, 2, 2
	o.ToleranceMbps = 50
	o.BaseSeed = 1000*uint64(cycle) + uint64(setting)
	o.Timing = func(s core.Spec) core.Spec {
		s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
		return s
	}
	return o
}

// startTestCoordinator starts a coordinator on a loopback port with
// test-speed heartbeats; mutate tweaks it before Start.
func startTestCoordinator(t *testing.T, mutate func(*Coordinator)) *Coordinator {
	t.Helper()
	c := &Coordinator{
		ListenAddr:        "127.0.0.1:0",
		Fingerprint:       testFP,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		Obs:               NewInstruments(nil),
	}
	if mutate != nil {
		mutate(c)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// startTestWorker runs a real worker against the coordinator and
// reports its exit error on the returned channel.
func startTestWorker(t *testing.T, name, addr string) <-chan error {
	t.Helper()
	w := &Worker{
		Name:        name,
		Coordinator: addr,
		Fingerprint: testFP,
		Services:    testCatalog(),
		Settings:    testSettings(),
		Options:     testOptions,
		ReadTimeout: 2 * time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	return done
}

func allPairs(cycle int) []core.PairTask {
	n := len(testCatalog())
	var tasks []core.PairTask
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			tasks = append(tasks, core.PairTask{Cycle: cycle, Setting: 0, A: i, B: j})
		}
	}
	return tasks
}

func collect(t *testing.T, ch <-chan core.PairTaskResult, want int) map[int]core.PairTaskResult {
	t.Helper()
	got := make(map[int]core.PairTaskResult)
	deadline := time.After(2 * time.Minute)
	for len(got) < want {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("result channel closed after %d of %d results", len(got), want)
			}
			if _, dup := got[r.Index]; dup {
				t.Fatalf("task %d delivered twice", r.Index)
			}
			got[r.Index] = r
		case <-deadline:
			t.Fatalf("timed out with %d of %d results", len(got), want)
		}
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel delivered more results than tasks")
	}
	return got
}

// TestFleetMatchesSerial: the full pair set executed by a two-worker
// fleet is byte-identical (JSON-compared) to the same pairs executed
// serially in-process — the property that makes every fault-tolerance
// trick in this package sound.
func TestFleetMatchesSerial(t *testing.T) {
	coord := startTestCoordinator(t, nil)
	startTestWorker(t, "w1", coord.Addr())
	startTestWorker(t, "w2", coord.Addr())
	if err := coord.WaitForWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	tasks := allPairs(1)
	ch, err := coord.RunPairs(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, ch, len(tasks))

	for i, task := range tasks {
		wantOut, wantEv := core.RunPairTask(testCatalog(), testSettings()[task.Setting],
			testOptions(task.Cycle, task.Setting), task)
		r := got[i]
		gj, _ := json.Marshal(r.Outcome)
		wj, _ := json.Marshal(wantOut)
		if string(gj) != string(wj) {
			t.Errorf("task %d (%d|%d): fleet outcome diverged from serial\nfleet:  %s\nserial: %s",
				i, task.A, task.B, gj, wj)
		}
		gje, _ := json.Marshal(r.Events)
		wje, _ := json.Marshal(wantEv)
		if string(gje) != string(wje) {
			t.Errorf("task %d: fleet events diverged from serial\nfleet:  %s\nserial: %s", i, gje, wje)
		}
	}
}

// TestFingerprintMismatchRejected: a worker whose configuration hash
// differs is turned away with the terminal RejectedError — it must not
// enter reconnect backoff against a coordinator that will never admit
// it.
func TestFingerprintMismatchRejected(t *testing.T) {
	reg := obs.NewRegistry()
	coord := startTestCoordinator(t, func(c *Coordinator) { c.Obs = NewInstruments(reg) })

	w := &Worker{
		Name:        "wrong",
		Coordinator: coord.Addr(),
		Fingerprint: testFP + 1,
		Services:    testCatalog(),
		Settings:    testSettings(),
		Options:     testOptions,
		BackoffBase: time.Millisecond,
	}
	err := w.Run()
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("mismatched worker: err %v, want RejectedError", err)
	}
	if reg.Counter("fleet_workers_rejected_total").Value() != 1 {
		t.Fatalf("rejects counter = %d, want 1",
			reg.Counter("fleet_workers_rejected_total").Value())
	}
}

// fakeWorker is a hand-driven protocol peer for failure-injection
// tests: it handshakes like a real worker but lets the test decide
// when (and whether) to answer assignments.
type fakeWorker struct {
	t  *testing.T
	fc *frameConn
}

func dialFake(t *testing.T, name, addr string) *fakeWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn)
	t.Cleanup(fc.close)
	if err := fc.write(&msg{Type: msgHello, Schema: Schema, Worker: name, Capacity: 1, Fingerprint: testFP}, time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := fc.read(2 * time.Second)
	if err != nil || m.Type != msgWelcome {
		t.Fatalf("handshake: %v %+v", err, m)
	}
	return &fakeWorker{t: t, fc: fc}
}

// awaitAssign reads until an assignment arrives, answering pings so the
// heartbeat stays healthy.
func (f *fakeWorker) awaitAssign() *msg {
	f.t.Helper()
	for {
		m, err := f.fc.read(5 * time.Second)
		if err != nil {
			f.t.Fatalf("fake worker read: %v", err)
		}
		switch m.Type {
		case msgPing:
			_ = f.fc.write(&msg{Type: msgPong, T: m.T}, time.Second)
		case msgAssign:
			return m
		}
	}
}

// badOutcomes are results a worker may ship that the coordinator must
// refuse, by what is wrong with them: raw trials and no sketches (the
// shape older builds shipped under -exact-stats), sketches holding more
// samples than the pair counted trials, and a skipped pair.
func badOutcomes(t testing.TB) map[string]string {
	honest, _ := core.RunPairTask(testCatalog(), testSettings()[0], testOptions(1, 0), allPairs(1)[0])
	honest.Sketches.N++
	miscounted, err := json.Marshal(honest)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"a raw-sample outcome": `{"Incumbent":"iPerf (Reno)","Contender":"iPerf (Reno)","Trials":[{"Mbps":[4,4],"SharePct":[100,100]}]}`,
		"a miscounted outcome": string(miscounted),
		"a skipped outcome":    `{"Incumbent":"iPerf (Reno)","Contender":"iPerf (Reno)","Skipped":true}`,
	}
}

// TestWorkerDeathRedispatch: a worker that dies holding a lease — or is
// dropped for answering it with a pair that carries raw trials and no
// sketches, the shape older builds shipped under -exact-stats, with a
// pair whose sketches hold more samples than it counted trials, or
// with a skipped pair — has its pair re-queued and executed by a
// survivor; the dispatch still completes with every result delivered
// exactly once.
func TestWorkerDeathRedispatch(t *testing.T) {
	ship := func(outcome string) func(f *fakeWorker, assign *msg) {
		return func(f *fakeWorker, assign *msg) {
			if err := f.fc.write(&msg{Type: msgResult, Lease: assign.Lease, Outcome: json.RawMessage(outcome)}, time.Second); err != nil {
				t.Fatalf("result write: %v", err)
			}
		}
	}
	fails := map[string]func(f *fakeWorker, assign *msg){
		"dies mid-lease": func(f *fakeWorker, _ *msg) { f.fc.close() },
	}
	for what, outcome := range badOutcomes(t) {
		fails["ships "+what] = ship(outcome)
	}
	for name, fail := range fails {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			coord := startTestCoordinator(t, func(c *Coordinator) {
				c.Obs = NewInstruments(reg)
				c.HeartbeatTimeout = 500 * time.Millisecond
			})

			flaky := dialFake(t, "a-flaky", coord.Addr())
			if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			tasks := allPairs(1)[:1]
			ch, err := coord.RunPairs(tasks, nil)
			if err != nil {
				t.Fatal(err)
			}
			fail(flaky, flaky.awaitAssign())

			startTestWorker(t, "b-steady", coord.Addr())
			got := collect(t, ch, len(tasks))

			wantOut, _ := core.RunPairTask(testCatalog(), testSettings()[0], testOptions(1, 0), tasks[0])
			gj, _ := json.Marshal(got[0].Outcome)
			wj, _ := json.Marshal(wantOut)
			if string(gj) != string(wj) {
				t.Fatalf("re-dispatched pair diverged from serial\nfleet:  %s\nserial: %s", gj, wj)
			}
			if reg.Counter("fleet_pairs_reassigned_total").Value() < 1 {
				t.Fatal("death did not count a reassignment")
			}
			if reg.Counter("fleet_workers_dead_total").Value() < 1 {
				t.Fatal("death did not count the worker as dead")
			}
		})
	}
}

// TestStragglerDuplicateDropped: an expired lease re-dispatches the
// pair to a different worker, and the straggler's late result is
// dropped as a duplicate — exactly one result reaches the matrix.
func TestStragglerDuplicateDropped(t *testing.T) {
	reg := obs.NewRegistry()
	coord := startTestCoordinator(t, func(c *Coordinator) {
		c.Obs = NewInstruments(reg)
		c.LeaseTTL = 50 * time.Millisecond
	})

	slow := dialFake(t, "a-slow", coord.Addr())
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tasks := allPairs(1)[:1]
	ch, err := coord.RunPairs(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign := slow.awaitAssign() // sits on the lease past its TTL

	startTestWorker(t, "b-steady", coord.Addr())
	collect(t, ch, len(tasks)) // steady's re-dispatched execution wins

	// The straggler finally reports; its result must vanish as a
	// duplicate, not corrupt anything.
	late, _ := core.RunPairTask(testCatalog(), testSettings()[0], testOptions(1, 0), tasks[0])
	lateJSON, err := json.Marshal(late)
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.fc.write(&msg{Type: msgResult, Lease: assign.Lease, Outcome: lateJSON}, time.Second); err != nil {
		t.Fatalf("straggler write: %v", err)
	}
	dupes := reg.Counter("fleet_duplicate_results_total")
	deadline := time.Now().Add(5 * time.Second)
	for dupes.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggler result was not counted as a duplicate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Counter("fleet_lease_expiries_total").Value() < 1 {
		t.Fatal("lease expiry was not counted")
	}
}

// TestBreakerCanary: a worker whose breaker is open gets exactly one
// canary pair; success closes the breaker with a clean score and
// normal assignment resumes.
func TestBreakerCanary(t *testing.T) {
	coord := startTestCoordinator(t, func(c *Coordinator) {
		c.breakers.Penalize("w1", core.DefaultBreakerThreshold) // open before the fleet even starts
		if c.breakers.State("w1") != core.BreakerOpen {
			t.Fatal("setup: breaker not open")
		}
	})
	startTestWorker(t, "w1", coord.Addr())
	if err := coord.WaitForWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	tasks := allPairs(1)[:2]
	ch, err := coord.RunPairs(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, ch, len(tasks))

	st := coord.BreakerStatus()
	if len(st) != 1 || st[0].State != "closed" || st[0].Score != 0 {
		t.Fatalf("after successful canary: %+v, want w1 closed with score 0", st)
	}
}
