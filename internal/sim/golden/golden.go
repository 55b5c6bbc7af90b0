// Package golden implements the golden-trace conformance harness for the
// simulation hot path. It records the complete bottleneck packet-lifecycle
// event stream (enqueue, dequeue, drop, delivery — each with its virtual
// timestamp) for a fixed corpus of service-pair experiments spanning every
// congestion-control algorithm and service archetype in the catalog, and
// replays the corpus against committed traces byte-for-byte.
//
// The corpus is the contract that makes hot-path optimization shippable:
// traces are recorded on a known-good engine, committed under
// testdata/golden/, and any later change to internal/sim, internal/netem,
// or internal/transport must reproduce them exactly. A pooling bug, a
// heap-ordering regression, or an off-by-one in timer reuse shows up as
// the first divergent line of a trace, not as a subtly shifted heatmap
// three PRs later.
//
// Re-record intentionally (after a deliberate behaviour change) with:
//
//	go test ./internal/sim/golden -run Golden -record
package golden

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// Entry is one corpus experiment: a pair (or solo) trial whose bottleneck
// event stream is pinned.
type Entry struct {
	// Name is the trace identifier and file stem under testdata/golden.
	Name string
	// Incumbent and Contender are Table-1 catalog names (services.ByName);
	// an empty Contender records a solo calibration run.
	Incumbent, Contender string
	// Net is the emulated bottleneck setting.
	Net netem.Config
	// Duration is the trial length. Corpus trials are short: the stream
	// pins byte-identical behaviour, not statistics, and a few virtual
	// seconds already cross every code path (slow start, loss recovery,
	// pacing, ABR decisions, feedback loops).
	Duration sim.Time
	// Seed fixes the trial's randomness.
	Seed uint64
}

// Corpus returns the pinned experiment set. Every congestion controller in
// internal/cca appears at least once (NewReno, Cubic, Cubic-extended,
// BBRv1 4.15/5.15/quic-tuned/mega-custom, BBRv3, GCC Meet and Teams
// flavours), as does every service archetype (video, file transfer, RTC,
// web, baseline, and a solo calibration run).
func Corpus() []Entry {
	hc := netem.HighlyConstrained()
	mc := netem.ModeratelyConstrained()
	return []Entry{
		{Name: "youtube-vs-iperf-cubic", Incumbent: "YouTube", Contender: "iPerf (Cubic)",
			Net: hc, Duration: 3 * sim.Second, Seed: 101},
		{Name: "netflix-vs-iperf-bbr", Incumbent: "Netflix", Contender: "iPerf (BBR)",
			Net: hc, Duration: 3 * sim.Second, Seed: 102},
		{Name: "meet-vs-dropbox", Incumbent: "Google Meet", Contender: "Dropbox",
			Net: hc, Duration: 3 * sim.Second, Seed: 103},
		{Name: "teams-vs-wikipedia", Incumbent: "Microsoft Teams", Contender: "wikipedia.org",
			Net: hc, Duration: 3 * sim.Second, Seed: 104},
		{Name: "vimeo-solo", Incumbent: "Vimeo", Contender: "",
			Net: hc, Duration: 3 * sim.Second, Seed: 105},
		{Name: "onedrive-vs-iperf-reno", Incumbent: "OneDrive", Contender: "iPerf (Reno)",
			Net: mc, Duration: sim.Second, Seed: 106},
		{Name: "gdrive-vs-mega", Incumbent: "Google Drive", Contender: "Mega",
			Net: mc, Duration: sim.Second, Seed: 107},
		{Name: "news-vs-youtube-web", Incumbent: "news.google.com", Contender: "youtube.com",
			Net: mc, Duration: sim.Second, Seed: 108},
	}
}

// recorder serializes lifecycle hook events as compact JSONL. Lines are
// hand-formatted (fixed key order, integer fields only) so the byte stream
// is fully deterministic and independent of encoding-library versions.
type recorder struct {
	buf *bytes.Buffer
	tmp []byte
	n   int
}

func (r *recorder) attach(tb *netem.Testbed) {
	b := tb.Bneck
	b.EnqueueHook = func(now sim.Time, p *netem.Packet) { r.line("enq", now, p) }
	b.DequeueHook = func(now sim.Time, p *netem.Packet) { r.line("deq", now, p) }
	b.DropHook = func(now sim.Time, p *netem.Packet) { r.line("drop", now, p) }
	b.DeliverHook = func(now sim.Time, p *netem.Packet) { r.line("dlv", now, p) }
}

func (r *recorder) line(ev string, now sim.Time, p *netem.Packet) {
	r.n++
	t := r.tmp[:0]
	t = append(t, `{"t":`...)
	t = strconv.AppendInt(t, int64(now), 10)
	t = append(t, `,"e":"`...)
	t = append(t, ev...)
	t = append(t, `","f":`...)
	t = strconv.AppendInt(t, int64(p.FlowID), 10)
	t = append(t, `,"s":`...)
	t = strconv.AppendInt(t, int64(p.Service), 10)
	t = append(t, `,"q":`...)
	t = strconv.AppendInt(t, p.Seq, 10)
	t = append(t, `,"n":`...)
	t = strconv.AppendInt(t, int64(p.Size), 10)
	t = append(t, "}\n"...)
	r.tmp = t
	r.buf.Write(t)
}

// corpusService resolves a catalog name for the corpus. Web pages are
// tuned to load immediately: their catalog configuration waits 30 virtual
// seconds before the first load (the paper's §5.2 procedure), which would
// leave a short conformance trial with an empty event stream.
func corpusService(name string) services.Service {
	svc := services.ByName(name)
	if w, ok := svc.(*services.WebPage); ok {
		w.StartDelay = 200 * sim.Millisecond
		w.LoadGap = 2 * sim.Second
	}
	return svc
}

// Record runs the entry's trial and returns its uncompressed trace: a
// header line describing the configuration, one line per lifecycle event,
// and a trailer with the event count and final virtual clock.
//
// The harness records the packet stream, not a measurement, so it has no
// tail to trim: Cooldown is 0 and the engine, which stops where a trial's
// window closes, covers the entry's whole Duration.
func Record(e Entry) ([]byte, error) { return recordTrial(e, 0) }

// recordTrial is Record for a trial whose window closes cooldown before
// the entry's Duration (TestTrialTraceIsPrefix).
func recordTrial(e Entry, cooldown sim.Time) ([]byte, error) {
	inc := corpusService(e.Incumbent)
	if inc == nil {
		return nil, fmt.Errorf("golden: unknown incumbent %q", e.Incumbent)
	}
	var cont services.Service
	if e.Contender != "" {
		if cont = corpusService(e.Contender); cont == nil {
			return nil, fmt.Errorf("golden: unknown contender %q", e.Contender)
		}
	}
	rec := &recorder{buf: &bytes.Buffer{}, tmp: make([]byte, 0, 96)}
	fmt.Fprintf(rec.buf,
		`{"golden":%q,"incumbent":%q,"contender":%q,"rate_bps":%d,"rtt_ns":%d,"duration_ns":%d,"seed":%d}`+"\n",
		e.Name, e.Incumbent, e.Contender, e.Net.RateBps, int64(e.Net.RTT), int64(e.Duration), e.Seed)
	spec := core.Spec{
		Incumbent: inc,
		Contender: cont,
		Net:       e.Net,
		Duration:  e.Duration,
		Warmup:    e.Duration / 4,
		Cooldown:  cooldown,
		Seed:      e.Seed,
		Observe:   rec.attach,
	}
	if _, err := core.RunTrial(spec); err != nil {
		return nil, fmt.Errorf("golden: trial %s: %w", e.Name, err)
	}
	fmt.Fprintf(rec.buf, `{"events":%d}`+"\n", rec.n)
	return rec.buf.Bytes(), nil
}

// Dir is the committed trace directory, relative to this package.
const Dir = "testdata/golden"

// File returns the committed trace path for an entry.
func File(e Entry) string { return filepath.Join(Dir, e.Name+".jsonl.gz") }

// WriteGolden gzips a raw trace to the entry's committed path. The gzip
// header carries no timestamp, so re-recording an unchanged stream leaves
// the file byte-identical.
func WriteGolden(e Entry, raw []byte) error {
	if err := os.MkdirAll(Dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(File(e), buf.Bytes(), 0o644)
}

// ReadGolden returns the decompressed committed trace for an entry.
func ReadGolden(e Entry) ([]byte, error) {
	f, err := os.Open(File(e))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", File(e), err)
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// FirstDiff locates the first line where two traces diverge, returning the
// 1-based line number and both lines (empty when a side ran out). It backs
// the replay test's failure message: a raw byte offset is useless, the
// divergent event is everything.
func FirstDiff(got, want []byte) (line int, gotLine, wantLine string) {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	n := len(g)
	if len(w) > n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return i + 1, string(gl), string(wl)
		}
	}
	return 0, "", ""
}
