package main

// End-to-end durability tests: SIGKILL the real binary mid-cycle at
// randomized points and require the journal-reconciled resume to
// converge on output byte-identical to an uninterrupted run, plus
// acceptance coverage for multi-cycle supervision (-cycles N -v) and -max-trial-wall.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"prudentia/internal/obs"
)

// cycleArgs is the shared seeded workload: one quick cycle over the
// three-baseline catalog in the highly-constrained setting (big enough
// that SIGKILL delays land mid-cycle).
func cycleArgs(seed string) []string {
	return []string{
		"-cycles", "1", "-setting", "high", "-workers", "2", "-seed", seed,
		"-services", "iPerf (Reno),iPerf (Cubic),iPerf (BBR)",
	}
}

// cycleOutput strips everything before the first cycle banner, leaving
// only the deterministic report (resume/recovery preambles differ
// between runs by construction).
func cycleOutput(t *testing.T, out []byte) string {
	t.Helper()
	s := string(out)
	i := strings.Index(s, "=== cycle")
	if i < 0 {
		t.Fatalf("no cycle banner in output:\n%s", s)
	}
	return s[i:]
}

// killUntilDone runs bin with args, SIGKILLing it at a random point and
// starting it again, until one attempt runs to completion; it returns
// that attempt's combined output. At least one kill must have landed.
// afterKill, when set, runs after each killed attempt has exited.
func killUntilDone(t *testing.T, bin string, args []string, rng *rand.Rand, afterKill func()) []byte {
	t.Helper()
	for kills := 0; kills < 60; kills++ {
		cmd := exec.Command(bin, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		// The kill window starts well inside the cycle and widens with
		// each attempt, so early attempts reliably die mid-cycle and the
		// journal-accelerated later attempts get room to finish.
		delay := time.Duration(40+rng.Intn(60+kills*120)) * time.Millisecond
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run failed (after %d kills): %v\n%s", kills, err, out.Bytes())
			}
			if kills == 0 {
				t.Fatal("cycle completed before any kill fired; widen the workload")
			}
			t.Logf("survived %d SIGKILLs before completing", kills)
			return out.Bytes()
		case <-time.After(delay):
			cmd.Process.Kill()
			<-done
			if afterKill != nil {
				afterKill()
			}
		}
	}
	t.Fatal("no attempt completed after 60 kills")
	return nil
}

// TestEndToEndKillLoop repeatedly SIGKILLs a -dir run at randomized
// (seed-logged) points until one attempt completes; the survivor's
// report and fault ledger must be byte-identical to an uninterrupted
// run — kill -9 loses at most the in-flight trial, and the resume
// replays everything else from the journal. The survivor's timeline is
// its own invocation's alone, and it leaves a manifest. The journal is
// an optimization, not a dependency: with d/trials.wal deleted after
// every kill, the resume from d/checkpoint.json alone re-simulates the
// lost trials to the same bytes. Under -adaptive
// a kill mid-screening leaves no allocation anywhere but in the
// journaled screening trials the resume replays.
func TestEndToEndKillLoop(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	// References: uninterrupted, one per protocol. Fault injection is
	// armed so the ledger the rows must reproduce is not an empty file.
	workload := func(adaptive bool, extra ...string) []string {
		args := append(cycleArgs("23"), "-chaos")
		if adaptive {
			args = append(args, "-adaptive")
		}
		return append(args, extra...)
	}
	type reference struct {
		out    []byte
		faults string
	}
	refs := map[bool]reference{}
	for _, adaptive := range []bool{false, true} {
		refDir := filepath.Join(dir, fmt.Sprintf("ref-%v", adaptive))
		out, err := exec.Command(bin, workload(adaptive, "-dir", refDir)...).CombinedOutput()
		if err != nil {
			t.Fatalf("reference run (adaptive=%v): %v\n%s", adaptive, err, out)
		}
		refs[adaptive] = reference{out, filepath.Join(refDir, "faults.jsonl")}
	}

	killSeed := time.Now().UnixNano()
	if env := os.Getenv("PRUDENTIA_KILL_SEED"); env != "" {
		var err error
		killSeed, err = strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PRUDENTIA_KILL_SEED: %v", err)
		}
	}
	t.Logf("kill-point seed: %d (re-run with PRUDENTIA_KILL_SEED=%d)", killSeed, killSeed)
	rng := rand.New(rand.NewSource(killSeed))

	for _, row := range []struct {
		name                  string
		dropJournal, adaptive bool
	}{
		{"checkpoint and journal", false, false},
		{"checkpoint alone", true, false},
		{"adaptive", false, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			ref := refs[row.adaptive]

			var afterKill func()
			if row.dropJournal {
				afterKill = func() {
					if err := os.Remove(path("trials.wal")); err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
				}
			}
			final := killUntilDone(t, bin, workload(row.adaptive, "-dir", dir), rng, afterKill)
			if row.dropJournal && !bytes.Contains(final, []byte("resuming cycle 1 from")) {
				t.Fatalf("survivor did not resume from the header:\n%s", final)
			}
			if got, want := cycleOutput(t, final), cycleOutput(t, ref.out); got != want {
				t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
			}
			got, err := os.ReadFile(path("faults.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(ref.faults)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed fault ledger differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
			}
			// Converged: the completed cycle keeps both durability files.
			for _, p := range []string{path("checkpoint.json"), path("trials.wal")} {
				if _, err := os.Stat(p); err != nil {
					t.Fatalf("%s not kept after completed cycle: %v", p, err)
				}
			}
			// Each invocation rewrites the timeline: the survivor's holds
			// its own cycle and no killed attempt's.
			f, err := os.Open(path("timeline.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := obs.ReadTimeline(f)
			if err != nil {
				t.Fatal(err)
			}
			ends := 0
			for _, ev := range events {
				if ev.Kind == "cycle_end" {
					ends++
				}
			}
			if ends != 1 {
				t.Fatalf("survivor's timeline holds %d cycle_end events, want 1", ends)
			}
			data, err := os.ReadFile(path("manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			// With the journal deleted after every kill, the survivor
			// re-simulated every trial: it replayed nothing.
			var m obs.Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			if row.dropJournal && (m.Journal == nil || m.Journal.Replayed != 0) {
				t.Fatalf("survivor's manifest journal = %+v, want one that replayed nothing", m.Journal)
			}
		})
	}
}

// TestEndToEndRerunCompleted: rerunning the command of a finished -dir
// replays the cycle the directory holds, the last one started, under
// that cycle's own banner, and simulates nothing. For -cycles 1 that is
// the whole report and fault ledger; for -cycles 2 it is cycle 2's
// report and ledger alone, with no cycle after it. Fault injection is
// armed, so each ledger is non-empty, and faults.jsonl holds the last
// cycle's events whichever process ran it.
func TestEndToEndRerunCompleted(t *testing.T) {
	bin := buildBinary(t)
	for _, cycles := range []int{1, 2} {
		n := strconv.Itoa(cycles)
		t.Run("cycles "+n, func(t *testing.T) {
			dir := t.TempDir()
			args := append(cycleArgs("3"), "-chaos", "-dir", dir)
			args[1] = n // cycleArgs starts "-cycles", "1"
			run := func() (string, []byte) {
				out, err := exec.Command(bin, args...).CombinedOutput()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out)
				}
				faults, err := os.ReadFile(filepath.Join(dir, "faults.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				return string(out), faults
			}
			first, firstFaults := run()
			rerun, rerunFaults := run()
			i := strings.Index(first, "=== cycle "+n+" ")
			if i < 0 {
				t.Fatalf("no banner of cycle %s:\n%s", n, first)
			}
			if !strings.HasPrefix(rerun, "resuming cycle "+n+" from ") {
				t.Fatalf("rerun did not resume cycle %s:\n%s", n, rerun)
			}
			if got := cycleOutput(t, []byte(rerun)); got != first[i:] {
				t.Fatalf("rerun's report differs from cycle %s's:\n--- rerun ---\n%s\n--- first ---\n%s", n, got, first[i:])
			}
			if len(firstFaults) == 0 || !bytes.Equal(rerunFaults, firstFaults) {
				t.Fatalf("rerun's fault ledger differs from the first run's (or is empty):\n%s\nvs\n%s", rerunFaults, firstFaults)
			}
			m := readManifest(t, filepath.Join(dir, "manifest.json"))
			if j := m.Journal; m.Cycle != cycles || j == nil || j.Records != 0 || j.Replayed == 0 || j.Replayed != j.Recovered {
				t.Fatalf("rerun's manifest: cycle %d, journal %+v; want cycle %d, 0 records, replayed == recovered > 0", m.Cycle, j, cycles)
			}
		})
	}
}

// TestEndToEndSoak runs consecutive cycles (breaker state carries across
// them) and requires the per-cycle breaker status line -v prints.
func TestEndToEndSoak(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin,
		"-cycles", "2", "-v", "-setting", "high", "-workers", "2", "-seed", "9",
		"-services", "iPerf (Cubic),iPerf (BBR)")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("soak run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"cycle 1 complete; breakers: all closed",
		"cycle 2 complete; breakers: all closed",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("soak output missing %q:\n%s", want, out)
		}
	}
}

// TestEndToEndReaperFlag arms -max-trial-wall with an impossible budget:
// every trial is reaped, every pair quarantined (××), and the fault
// ledger records the typed reap failures — the cycle still completes.
func TestEndToEndReaperFlag(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, append(cycleArgs("4"),
		"-max-trial-wall", "1e-9", "-dir", dir)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("reaper run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "××") {
		t.Fatalf("reaped cycle must quarantine pairs (××):\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "faults.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"reap"`) {
		t.Fatalf("fault ledger has no reap events:\n%s", data)
	}
}
