package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ErrFutureVersion marks a file written by a newer schema version than
// this build understands. Callers must treat it as a hard error:
// silently replacing or half-parsing it would fork history that a newer
// binary still considers authoritative.
var ErrFutureVersion = errors.New("schema is newer than this build")

// CheckSchema validates the schema string got that path carries against
// the "<prefix>/<version>" string want this build writes. A higher
// version under the same prefix is ErrFutureVersion (upgrade the
// binary); anything else is a foreign file.
func CheckSchema(path, got, want string) error {
	if got == want {
		return nil
	}
	slash := strings.LastIndexByte(want, '/') + 1
	if v, ok := strings.CutPrefix(got, want[:slash]); ok {
		cur, _ := strconv.Atoi(want[slash:])
		if n, err := strconv.Atoi(v); err == nil && n > cur {
			return fmt.Errorf("%s is %q, newer than this build's %q: %w (upgrade the binary or move the file aside)",
				path, got, want, ErrFutureVersion)
		}
	}
	return fmt.Errorf("%s is not a %s file (schema %q)", path, want, got)
}

// logHeader is the first frame of every Log.
type logHeader struct {
	Schema string `json:"schema"`
}

// Recovered reports what OpenLog found on disk.
type Recovered struct {
	// Payloads are the intact records after the header, in append order.
	Payloads [][]byte
	// TornBytes is how many trailing bytes were cut (0 for a clean log).
	TornBytes int64
	// Truncated reports whether a torn or corrupt tail was removed.
	Truncated bool
}

// Log is a schema-stamped append-only file of opaque payloads: a header
// frame {"schema":...} followed by one frame per record, each fsynced
// before Append returns. It is safe for concurrent use, and a nil *Log
// is a no-op (durability disabled). Write errors are sticky: after the
// first failure every Append returns the same error without touching
// the file, so the owner degrades instead of dying, until a successful
// Rewrite gives it a fresh file.
type Log struct {
	mu      sync.Mutex
	path    string
	schema  string
	wrap    WrapFunc
	f       File
	err     error
	records int64
	bytes   int64
}

// OpenLog recovers the log at path and positions a writer at its end.
// Frames are scanned from the start up to the first that is short, fails
// its CRC, or is refused by decode (nil accepts everything); that
// prefix is what Recovered carries, and the rest is truncated away
// (fsynced) before appending resumes. decode sees each record once, in
// order, so callers can build their typed state in the same pass.
//
// Failure policy: OpenLog is fatal only when intact records would be
// lost — the file exists but cannot be read, or its header names a
// foreign or future schema. A missing, empty or headerless file holds
// nothing to lose and is rebuilt. Any failure after the records are in
// hand (rebuilding, reopening, truncating, repositioning) degrades
// instead: the recovered records are returned with a log whose sticky
// Err refuses appends until Rewrite succeeds, so one bad sector cannot
// wedge its owner into a boot loop.
func OpenLog(path, schema string, wrap WrapFunc, decode func(payload []byte) error) (*Log, Recovered, error) {
	os.Remove(tempPath(path)) // orphan of a crash mid-Rewrite
	l := &Log{path: path, schema: schema, wrap: wrap}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Recovered{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	payloads, good := ScanFrames(data)
	if len(payloads) == 0 {
		// Nothing intact to lose: rebuild. A failed rebuild (before or
		// after the rename) is the log's first sticky error.
		l.err = l.Rewrite(nil)
		return l, Recovered{TornBytes: int64(len(data)), Truncated: len(data) > 0}, nil
	}
	var hdr logHeader
	if err := json.Unmarshal(payloads[0], &hdr); err != nil {
		return nil, Recovered{}, fmt.Errorf("journal: %s is not a %s file", path, schema)
	}
	if err := CheckSchema(path, hdr.Schema, schema); err != nil {
		return nil, Recovered{}, fmt.Errorf("journal: %w", err)
	}
	rec := Recovered{Payloads: payloads[1:]}
	if decode != nil {
		off := int64(frameHeader + len(payloads[0]))
		for i, p := range rec.Payloads {
			if decode(p) != nil {
				// Passes CRC but does not parse: the trustworthy prefix
				// ends here.
				rec.Payloads, good = rec.Payloads[:i], off
				break
			}
			off += int64(frameHeader + len(p))
		}
	}
	rec.TornBytes = int64(len(data)) - good
	rec.Truncated = rec.TornBytes > 0
	l.err = l.reopen(good, rec.Truncated)
	return l, rec, nil
}

// reopen swaps the live handle to the file at l.path, cut back to size
// when truncate is set and positioned at size for appending. On failure
// the log is left without a handle.
func (l *Log) reopen(size int64, truncate bool) error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	f, err := openFile(l.path, os.O_RDWR, l.wrap)
	if err != nil {
		return fmt.Errorf("journal: reopen %s: %w", l.path, err)
	}
	if truncate {
		if err = f.Truncate(size); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("journal: truncate torn tail of %s: %w", l.path, err)
		}
		_ = SyncDir(filepath.Dir(l.path)) // best-effort, see SyncDir
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return fmt.Errorf("journal: seek %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// Rewrite atomically replaces the log's contents with header + the
// given payloads (ReplaceFile), then swaps the writer to the new file.
// It is both how a log is created and how its owner compacts it. A
// successful Rewrite clears any sticky error; one that fails before the
// rename leaves the old file and the old error state untouched; one
// that cannot reopen the new file leaves the log sticky-degraded.
func (l *Log) Rewrite(payloads [][]byte) error {
	if l == nil {
		return nil
	}
	hdr, _ := json.Marshal(logHeader{Schema: l.schema}) // a struct of one string cannot fail
	buf := Frame(hdr)
	for _, p := range payloads {
		buf = append(buf, Frame(p)...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := ReplaceFile(l.path, buf, l.wrap); err != nil {
		return err
	}
	l.err = l.reopen(int64(len(buf)), false)
	return l.err
}

// Append frames, writes and fsyncs one record; it is durable when
// Append returns nil.
func (l *Log) Append(payload []byte) error {
	if l == nil {
		return nil
	}
	buf := Frame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("journal: append %s: %w", l.path, err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("journal: sync %s: %w", l.path, err)
		return l.err
	}
	l.records++
	l.bytes += int64(len(buf))
	return nil
}

// Stats returns the records and bytes appended through this handle (not
// counting what recovery found on disk or Rewrite wrote).
func (l *Log) Stats() (records, bytes int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records, l.bytes
}

// Err returns the sticky error, if any.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close releases the file. The log needs no finalization: every
// acknowledged append is already durable.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = err
	}
	return l.err
}
