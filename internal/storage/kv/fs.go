package kv

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the handle the durable engine writes WAL segments and SSTables
// through. Writes are sequential appends; reads are positional. Sync is
// the durability barrier: data written before a successful Sync must
// survive a crash, data after it may be lost or torn.
type File interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Close() error
}

// FS is the small filesystem surface the durable engine needs. Two
// implementations ship with the package: DirFS over a real directory
// (used by cmd/crashtest and the servers) and MemFS, an in-memory
// filesystem with deterministic crash simulation (used by experiments
// and the model-based property tests). The fault layer wraps either to
// inject fsync stalls and torn writes.
//
// Rename is atomic and durable: after it returns, a crash exposes either
// the old name or the new name with the file's full synced content,
// never a half-renamed state. This matches POSIX rename plus a directory
// fsync, which DirFS performs.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically moves oldName to newName.
	Rename(oldName, newName string) error
	// List returns the base names of all files, sorted.
	List() ([]string, error)
	// Size returns the current length of name in bytes.
	Size(name string) (int64, error)
}

// errCrashed is returned by MemFS handles that were opened before a
// simulated crash; like a real process restart, pre-crash descriptors
// are dead.
var errCrashed = errors.New("kv: filesystem crashed under this handle")

// ---------------------------------------------------------------------------
// DirFS: a real directory.

type dirFS struct {
	dir string
}

// DirFS returns an FS rooted at dir, creating it if needed. Create,
// Remove and Rename fsync the directory so metadata survives a crash —
// the engine's recovery protocol depends on rename durability.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kv: create dir: %w", err)
	}
	return &dirFS{dir: dir}, nil
}

func (d *dirFS) path(name string) string { return filepath.Join(d.dir, filepath.Base(name)) }

// syncDir flushes directory metadata (created/renamed/removed entries).
func (d *dirFS) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (d *dirFS) Create(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := d.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (d *dirFS) Open(name string) (File, error) {
	return os.Open(d.path(name))
}

func (d *dirFS) Remove(name string) error {
	if err := os.Remove(d.path(name)); err != nil {
		return err
	}
	return d.syncDir()
}

func (d *dirFS) Rename(oldName, newName string) error {
	if err := os.Rename(d.path(oldName), d.path(newName)); err != nil {
		return err
	}
	return d.syncDir()
}

func (d *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *dirFS) Size(name string) (int64, error) {
	st, err := os.Stat(d.path(name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------------
// MemFS: in-memory filesystem with deterministic crash simulation.

// MemFS is an in-memory FS. Every file tracks its synced watermark, so
// Crash can model exactly what a power failure exposes: everything up to
// the last Sync survives, the unsynced tail survives only as a
// seed-determined prefix (a torn write). Experiments use it to run the
// durable engine at memory speed; the property tests use Crash to
// exercise recovery thousands of times per second.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	gen   int // bumped by Crash; invalidates older handles
}

type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Crash simulates a machine power failure. For each file, data up to the
// synced watermark survives; the unsynced tail is truncated to a prefix
// whose length is drawn deterministically from seed — modeling a torn
// final write. Handles opened before the crash return errCrashed on any
// further operation, like descriptors of a dead process.
func (m *MemFS) Crash(seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	// Deterministic tear lengths: iterate files in sorted order.
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := m.files[n]
		tail := len(f.data) - f.synced
		if tail <= 0 {
			continue
		}
		keep := int(crashMix(uint64(seed), n) % uint64(tail+1))
		f.data = f.data[:f.synced+keep]
		f.synced = len(f.data)
	}
}

// crashMix derives a deterministic per-file tear length from the crash
// seed and the file name (splitmix64 over a name hash).
func crashMix(seed uint64, name string) uint64 {
	h := seed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001B3
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

type memHandle struct {
	fs   *MemFS
	f    *memFile
	gen  int
	name string
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return &memHandle{fs: m, f: f, gen: m.gen, name: name}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("kv: open %s: %w", name, os.ErrNotExist)
	}
	return &memHandle{fs: m, f: f, gen: m.gen, name: name}, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("kv: remove %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("kv: rename %s: %w", oldName, os.ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = f
	// Rename is the engine's commit point; model it as durable.
	f.synced = len(f.data)
	return nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("kv: size %s: %w", name, os.ErrNotExist)
	}
	return int64(len(f.data)), nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.gen != h.fs.gen {
		return 0, errCrashed
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.gen != h.fs.gen {
		return 0, errCrashed
	}
	if off < 0 || off > int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.gen != h.fs.gen {
		return errCrashed
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }
