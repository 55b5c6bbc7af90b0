package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files only, around the calls into
// the program; spans inside the program are a later change.
type span struct {
	// Trace is the workload-wide id every span of one run shares.
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// StartNs and EndNs count from the start of the run.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them out when the run ends.
// A nil *spanLog (the untraced pass) records nothing.
type spanLog struct {
	mu    sync.Mutex
	trace string
	t0    time.Time
	spans []span
}

func newSpanLog(trace string) *spanLog {
	return &spanLog{trace: trace, t0: time.Now()}
}

// start opens a span and returns its id, to be passed to end and used
// as the parent of spans it causes.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Trace: l.trace, ID: id, Parent: parent, Name: name, StartNs: now})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (request
// latencies, trial events from the program's timeline).
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Trace: l.trace, ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds(),
	})
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
