package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cachecost/internal/storage/kv"
)

// errTornWrite is returned by a fault FS when torn-write injection
// fires: only a prefix of the buffer reached the underlying file. The
// kv engine treats durable-path I/O errors as fatal (crash-only
// design), so under injection the process dies exactly as it would in
// a real mid-write power cut — with a partial frame on disk that
// recovery must reject.
var errTornWrite = errors.New("fault: torn write injected")

// tornWriteFrac is the fraction of a torn buffer that reaches the inner
// file.
const tornWriteFrac = 0.5

// FSOptions configures a fault-injecting filesystem wrapper.
type FSOptions struct {
	// SyncSleep adds a wall-clock delay inside every fsync. The kill
	// harness uses it to widen the window in which a SIGKILL lands
	// mid-fsync; it is real sleeping, not metered work.
	SyncSleep time.Duration
	// TornWriteAfter tears the Nth write call (1-based) across all
	// files: only half of the buffer reaches the inner file and the
	// write returns errTornWrite. Zero disables injection.
	TornWriteAfter int64
}

// FS wraps a kv.FS, sleeping in every fsync and optionally tearing one
// write. It composes with both DirFS (for the crash harness) and MemFS
// (for in-process tests).
type FS struct {
	inner  kv.FS
	opts   FSOptions
	writes atomic.Int64
	syncs  atomic.Int64
	torn   atomic.Int64
}

// NewFS returns inner with opts' sync sleep and torn write applied.
func NewFS(inner kv.FS, opts FSOptions) *FS {
	return &FS{inner: inner, opts: opts}
}

func (f *FS) Create(name string) (kv.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FS) Open(name string) (kv.File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *FS) Rename(oldName, newName string) error { return f.inner.Rename(oldName, newName) }
func (f *FS) List() ([]string, error)              { return f.inner.List() }
func (f *FS) Size(name string) (int64, error)      { return f.inner.Size(name) }

// faultFile interposes on the write and sync paths; reads pass through.
type faultFile struct {
	kv.File
	fs *FS
}

func (f *faultFile) Write(p []byte) (int, error) {
	n := f.fs.writes.Add(1)
	if after := f.fs.opts.TornWriteAfter; after > 0 && n == after {
		f.fs.torn.Add(1)
		keep := int(float64(len(p)) * tornWriteFrac)
		if keep > 0 {
			if _, err := f.File.Write(p[:keep]); err != nil {
				return 0, err
			}
		}
		return keep, fmt.Errorf("%w: wrote %d of %d bytes", errTornWrite, keep, len(p))
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.syncs.Add(1)
	if d := f.fs.opts.SyncSleep; d > 0 {
		time.Sleep(d)
	}
	return f.File.Sync()
}
