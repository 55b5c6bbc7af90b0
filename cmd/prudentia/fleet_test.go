package main

// End-to-end fleet tests: a real coordinator process sharding a cycle
// over real worker processes, with workers SIGKILLed and restarted at
// seed-logged random points. The coordinator's report and fault ledger
// must be byte-identical to a serial single-process run — the fleet's
// whole determinism contract, exercised through the shipped binary.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// awaitAddrFile polls for the coordinator's published listen address.
func awaitAddrFile(t *testing.T, path string, stderr *bytes.Buffer) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(path); err == nil {
			if s := strings.TrimSpace(string(b)); s != "" {
				return s
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("coordinator never published its address; stderr:\n%s", stderr.Bytes())
	return ""
}

// TestEndToEndFleetKillLoop runs one cycle through a coordinator with
// three worker processes while a seed-logged loop SIGKILLs random
// workers and restarts them. Every death re-queues the victim's leased
// pairs for the survivors, and because re-execution is deterministic,
// the final report and fault ledger must equal the serial reference
// byte for byte.
func TestEndToEndFleetKillLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet kill loop spawns many processes; skipped in -short")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	// The whole catalog (55 pairs), not cycleArgs' three iPerf flows:
	// three workers finish those six pairs in under the 150 ms that
	// pass before the first kill, and the test then fails with no
	// worker killed.
	seedArgs := []string{"-cycles", "1", "-setting", "high", "-workers", "2", "-seed", "31"}

	// Serial reference: same workload, no fleet.
	refFaults := filepath.Join(dir, "ref-faults.jsonl")
	ref := exec.Command(bin, append(seedArgs, "-faults-out", refFaults)...)
	refOut, err := ref.CombinedOutput()
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, refOut)
	}

	killSeed := time.Now().UnixNano()
	if env := os.Getenv("PRUDENTIA_FLEET_KILL_SEED"); env != "" {
		killSeed, err = strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PRUDENTIA_FLEET_KILL_SEED: %v", err)
		}
	}
	t.Logf("kill seed: %d (re-run with PRUDENTIA_FLEET_KILL_SEED=%d)", killSeed, killSeed)
	rng := rand.New(rand.NewSource(killSeed))

	addrFile := filepath.Join(dir, "addr.txt")
	faults := filepath.Join(dir, "faults.jsonl")
	coord := exec.Command(bin, append(seedArgs,
		"-coordinator", "-listen", "127.0.0.1:0", "-listen-addr-file", addrFile,
		"-expect-workers", "3", "-faults-out", faults)...)
	var coordOut, coordErr bytes.Buffer
	coord.Stdout, coord.Stderr = &coordOut, &coordErr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Wait() }()
	defer coord.Process.Kill()

	addr := awaitAddrFile(t, addrFile, &coordErr)
	startWorker := func(i int) *exec.Cmd {
		cmd := exec.Command(bin, append(seedArgs,
			"-connect", addr, "-worker-name", fmt.Sprintf("w%d", i))...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go cmd.Wait()
		return cmd
	}
	workers := make([]*exec.Cmd, 3)
	for i := range workers {
		workers[i] = startWorker(i)
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()

	kills := 0
	testDeadline := time.After(5 * time.Minute)
loop:
	for {
		select {
		case err := <-coordDone:
			if err != nil {
				t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, coordErr.Bytes())
			}
			break loop
		case <-testDeadline:
			t.Fatalf("fleet cycle did not converge after %d kills; coordinator stderr:\n%s",
				kills, coordErr.Bytes())
		case <-time.After(time.Duration(150+rng.Intn(250)) * time.Millisecond):
			victim := rng.Intn(len(workers))
			_ = workers[victim].Process.Kill()
			kills++
			workers[victim] = startWorker(victim)
		}
	}
	if kills == 0 {
		t.Fatal("cycle completed before any worker was killed; widen the workload")
	}
	t.Logf("fleet survived %d worker SIGKILLs", kills)

	if got, want := cycleOutput(t, coordOut.Bytes()), cycleOutput(t, refOut); got != want {
		t.Fatalf("fleet report differs from serial run after %d kills:\n--- fleet ---\n%s\n--- serial ---\n%s",
			kills, got, want)
	}
	gotF, err := os.ReadFile(faults)
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := os.ReadFile(refFaults)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotF, wantF) {
		t.Fatalf("fleet fault ledger differs from serial run:\n--- fleet ---\n%s\n--- serial ---\n%s", gotF, wantF)
	}
}

// TestEndToEndFleetPartitions arms -chaos-partitions: the coordinator
// severs worker assignments on purpose, records the partitions in the
// fault ledger, and the report must STILL be byte-identical to serial —
// the severed pairs are just re-executed deterministically elsewhere.
func TestEndToEndFleetPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet partition test spawns processes; skipped in -short")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	seedArgs := []string{
		"-cycles", "1", "-setting", "high", "-seed", "5",
		"-services", "iPerf (Reno),iPerf (Cubic)",
	}

	ref := exec.Command(bin, seedArgs...)
	refOut, err := ref.CombinedOutput()
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, refOut)
	}

	addrFile := filepath.Join(dir, "addr.txt")
	faults := filepath.Join(dir, "faults.jsonl")
	coord := exec.Command(bin, append(seedArgs,
		"-coordinator", "-listen", "127.0.0.1:0", "-listen-addr-file", addrFile,
		"-expect-workers", "2", "-chaos-partitions", "1", "-faults-out", faults)...)
	var coordOut, coordErr bytes.Buffer
	coord.Stdout, coord.Stderr = &coordOut, &coordErr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- coord.Wait() }()
	defer coord.Process.Kill()

	addr := awaitAddrFile(t, addrFile, &coordErr)
	var workers []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd := exec.Command(bin, append(seedArgs,
			"-connect", addr, "-worker-name", fmt.Sprintf("p%d", i))...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go cmd.Wait()
		workers = append(workers, cmd)
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()

	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, coordErr.Bytes())
		}
	case <-time.After(5 * time.Minute):
		t.Fatalf("partitioned fleet did not converge; stderr:\n%s", coordErr.Bytes())
	}

	// The injected partitions surface in exactly one place on stdout:
	// the fault-ledger summary line. Everything else — every matrix and
	// summary — must match the serial run byte for byte.
	got := cycleOutput(t, coordOut.Bytes())
	if !strings.Contains(got, "fault ledger: partition=1") {
		t.Fatalf("report does not mention the injected partition:\n%s", got)
	}
	var kept []string
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "fault ledger:") {
			continue
		}
		kept = append(kept, line)
	}
	if got, want := strings.TrimRight(strings.Join(kept, "\n"), "\n"),
		strings.TrimRight(cycleOutput(t, refOut), "\n"); got != want {
		t.Fatalf("partitioned fleet report differs from serial run:\n--- fleet ---\n%s\n--- serial ---\n%s", got, want)
	}
	ledger, err := os.ReadFile(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ledger), `"kind":"partition"`) {
		t.Fatalf("fault ledger records no partition events:\n%s", ledger)
	}
}
