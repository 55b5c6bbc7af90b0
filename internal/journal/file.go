package journal

import (
	"fmt"
	"os"
	"path/filepath"
)

// File is the storage seam of every durable write: the subset of
// *os.File the log and ReplaceFile touch. Production code passes the
// file itself; chaos tests pass a fault-injecting wrapper
// (chaos.FaultyFile) so the sticky-degrade, torn-tail and atomic-save
// paths run under injected disk misbehavior instead of being trusted on
// faith.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Close() error
}

// WrapFunc turns a freshly opened file into the File a durable writer
// uses. nil means "use the file as-is".
type WrapFunc func(*os.File) File

// openFile opens path and passes it through wrap.
func openFile(path string, flag int, wrap WrapFunc) (File, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	if wrap == nil {
		return f, nil
	}
	return wrap(f), nil
}

// SyncDir fsyncs a directory so a just-created, just-renamed or
// just-truncated entry survives power loss. Callers treat the error as
// best-effort: some filesystems reject directory fsync, and a rename is
// already atomic against process crashes.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// tempPath is the one temp name ReplaceFile stages path's new contents
// under. It is a pure function of the target, so a temp orphaned by a
// crash between write and rename is overwritten by the next replace of
// the same target (and removed by OpenLog) instead of leaking, and no
// other target's temp is ever touched.
func tempPath(path string) string {
	return filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
}

// ReplaceFile atomically and durably replaces path with data: write the
// target's temp file, fsync, close, rename over path, fsync the
// directory. A crash or injected fault anywhere before the rename
// leaves the previous contents intact; after it, the file fsync has
// persisted the bytes and the directory fsync the name pointing at
// them, so the replacement survives a machine crash too. Each target
// has a single writer.
func ReplaceFile(path string, data []byte, wrap WrapFunc) error {
	tmp := tempPath(path)
	f, err := openFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, wrap)
	if err != nil {
		return fmt.Errorf("journal: replace %s: %w", path, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: replace %s: %w", path, err)
	}
	_ = SyncDir(filepath.Dir(path)) // best-effort, see SyncDir
	return nil
}
