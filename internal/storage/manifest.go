package storage

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/dbhammer/mirage/internal/relalg"
)

// ManifestName is the run manifest's file name inside the sink directory.
const ManifestName = "manifest.json"

// ManifestVersion is bumped whenever the on-disk manifest format changes in
// a way an older reader would misinterpret; Load refuses newer versions.
const ManifestVersion = 1

// ErrManifestMismatch is the root cause of every resume refusal triggered by
// a fingerprint difference: the manifest on disk describes a run with a
// different workload, seed, schema, or generation options, so resuming would
// stitch two different databases together. Tests and callers assert with
// errors.Is.
var ErrManifestMismatch = errors.New("storage: run manifest fingerprint mismatch")

// ErrManifestVerify is the root cause of a resume refusal triggered by a
// committed table failing its size or content-hash check: the file on disk
// is not the one the manifest recorded (truncated, corrupted, or replaced),
// so its "committed" claim cannot be trusted.
var ErrManifestVerify = errors.New("storage: committed table failed verification")

// Fingerprint identifies a generation run for resume purposes: two runs with
// equal fingerprints produce byte-identical exports, so a manifest written
// by one can safely steer the other. Only byte-affecting inputs participate
// — parallelism, shard size, and window size are deliberately absent because
// the pipeline's output is byte-identical at any value of them (a run may be
// resumed at a different worker count or shard size). A
// manifest written before a field left the fingerprint still loads: the
// decoder ignores the stale key.
type Fingerprint struct {
	// Workload is a caller-owned label (e.g. the scenario name); compared
	// like every other field, but not derivable by the pipeline itself.
	Workload string `json:"workload,omitempty"`
	// SchemaHash digests the schema structure and row counts (SchemaFingerprint).
	SchemaHash string `json:"schema_hash"`
	// WorkloadHash digests the workload driving generation: every
	// template's tree, annotated cardinalities and original parameters,
	// plus the codec set (mirage.RunFingerprint).
	WorkloadHash string `json:"workload_hash"`
	Seed         int64  `json:"seed"`
	SampleSize   int    `json:"sample_size"`
}

// diff lists the fields where f and g disagree, in a stable order.
func (f Fingerprint) diff(g Fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: manifest has %v, run has %v", name, a, b))
		}
	}
	add("workload", f.Workload, g.Workload)
	add("schema_hash", f.SchemaHash, g.SchemaHash)
	add("workload_hash", f.WorkloadHash, g.WorkloadHash)
	add("seed", f.Seed, g.Seed)
	add("sample_size", f.SampleSize, g.SampleSize)
	return out
}

// SchemaFingerprint digests a schema's generation-relevant structure: table
// names and row counts plus every column's name, type, kind, reference and
// domain size, in schema order. Two schemas with equal fingerprints define
// the same generation problem shape (dictionaries ride through codecs and
// are covered by the workload hash's template set indirectly).
func SchemaFingerprint(schema *relalg.Schema) string {
	h := fnv.New64a()
	for _, t := range schema.Tables {
		fmt.Fprintf(h, "%s|%d;", t.Name, t.Rows)
		for i := range t.Columns {
			c := &t.Columns[i]
			fmt.Fprintf(h, "%s|%d|%d|%s|%d;", c.Name, c.Type, c.Kind, c.Refs, c.DomainSize)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TableState is one table's entry in the manifest. Status moves
// pending → committed; a crashed run leaves pending (or absent) entries,
// which resume simply re-exports — the commit protocol makes that
// idempotent.
type TableState struct {
	// Status is "pending" while the table is being streamed and "committed"
	// once its file has been durably renamed into place.
	Status string `json:"status"`
	// File is the table's file name within the sink directory.
	File string `json:"file"`
	// Rows and Bytes describe the committed content; Bytes counts the
	// *content* bytes written through the TableWriter (pre-compression), so
	// the value is identical whether or not the sink compresses.
	Rows  int64 `json:"rows,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// Hash is the streaming FNV-64a hash of the content bytes, hex-encoded.
	Hash string `json:"hash,omitempty"`
}

const (
	statusPending   = "pending"
	statusCommitted = "committed"
)

// Manifest records one streamed run's identity and per-table progress in the
// sink directory, so an interrupted run can be resumed instead of restarted.
// Every mutation is persisted atomically (tmp + fsync + rename + directory
// fsync) before the mutating call returns: the manifest on disk never claims
// more than what is durably true, and a torn write can never be mistaken for
// a manifest (the rename is atomic). The manifest deliberately carries no
// timestamps — a resumed run's final manifest is byte-identical to an
// uninterrupted run's, which lets the differential test harness compare
// whole directory trees.
type Manifest struct {
	mu  sync.Mutex
	dir string

	Version     int                    `json:"version"`
	Fingerprint Fingerprint            `json:"fingerprint"`
	Tables      map[string]*TableState `json:"tables"`
}

// NewManifest creates an empty manifest for a fresh run into dir. Nothing is
// written until Save (or the first Mark call).
func NewManifest(dir string, fp Fingerprint) *Manifest {
	return &Manifest{dir: dir, Version: ManifestVersion, Fingerprint: fp, Tables: map[string]*TableState{}}
}

// LoadManifest reads the manifest from dir. A missing file surfaces as a
// wrapped fs.ErrNotExist so callers can distinguish "nothing to resume" from
// a malformed manifest.
func LoadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("storage: load manifest: %w", err)
	}
	m := &Manifest{dir: dir}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("storage: load manifest: %w", err)
	}
	if m.Version > ManifestVersion {
		return nil, fmt.Errorf("storage: load manifest: version %d is newer than supported %d", m.Version, ManifestVersion)
	}
	if m.Tables == nil {
		m.Tables = map[string]*TableState{}
	}
	return m, nil
}

// Dir returns the sink directory the manifest lives in.
func (m *Manifest) Dir() string { return m.dir }

// Check compares the manifest's fingerprint against the current run's and
// returns a wrapped ErrManifestMismatch naming every differing field. A
// matching fingerprint returns nil.
func (m *Manifest) Check(fp Fingerprint) error {
	if d := m.Fingerprint.diff(fp); len(d) > 0 {
		return fmt.Errorf("%w: %s", ErrManifestMismatch, strings.Join(d, "; "))
	}
	return nil
}

// Table returns a copy of the named table's manifest entry.
func (m *Manifest) Table(name string) (TableState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.Tables[name]
	if !ok {
		return TableState{}, false
	}
	return *st, true
}

// Committed reports whether the manifest records the table as durably
// committed.
func (m *Manifest) Committed(table string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.Tables[table]
	return ok && st.Status == statusCommitted
}

// CommittedTables returns the committed table names, sorted.
func (m *Manifest) CommittedTables() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name, st := range m.Tables {
		if st.Status == statusCommitted {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MarkPending records that the table's export has started (or restarted) and
// persists the manifest. An existing entry — committed or not — is reset to
// pending: callers only re-export tables they've decided to re-run.
func (m *Manifest) MarkPending(table, file string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Tables[table] = &TableState{Status: statusPending, File: file}
	return m.saveLocked()
}

// MarkCommitted records a durable table commit — row count, content byte
// count, and streaming content hash — and persists the manifest. It must be
// called only after the sink's own Commit returned, so the manifest never
// gets ahead of the data.
func (m *Manifest) MarkCommitted(table, file string, rows, bytes int64, hash uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Tables[table] = &TableState{
		Status: statusCommitted, File: file,
		Rows: rows, Bytes: bytes, Hash: fmt.Sprintf("%016x", hash),
	}
	return m.saveLocked()
}

// Save persists the manifest atomically and durably.
func (m *Manifest) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saveLocked()
}

func (m *Manifest) saveLocked() error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: save manifest: %w", err)
	}
	// A fresh run's first Save may precede the sink's first OpenTable (which
	// is what lazily creates the directory), so create it here too.
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return fmt.Errorf("storage: save manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(m.dir, ManifestName), append(b, '\n')); err != nil {
		return fmt.Errorf("storage: save manifest: %w", err)
	}
	return nil
}

// VerifyCommitted re-reads every committed table's file and checks its
// content byte count and FNV-64a hash against the manifest (gzip-compressed
// files are decompressed first — the manifest hashes content, not encoding).
// Any divergence returns a wrapped ErrManifestVerify naming the table:
// resume refuses to build on data it cannot trust.
func (m *Manifest) VerifyCommitted() error {
	for _, name := range m.CommittedTables() {
		m.mu.Lock()
		st := m.Tables[name]
		m.mu.Unlock()
		bytes, sum, err := hashContentFile(filepath.Join(m.dir, st.File))
		if err != nil {
			return fmt.Errorf("%w: table %s: %v", ErrManifestVerify, name, err)
		}
		if bytes != st.Bytes {
			return fmt.Errorf("%w: table %s: file %s has %d content bytes, manifest recorded %d",
				ErrManifestVerify, name, st.File, bytes, st.Bytes)
		}
		if got := fmt.Sprintf("%016x", sum); got != st.Hash {
			return fmt.Errorf("%w: table %s: file %s content hash %s, manifest recorded %s",
				ErrManifestVerify, name, st.File, got, st.Hash)
		}
	}
	return nil
}

// hashContentFile streams a committed file through FNV-64a, transparently
// decompressing .gz files, and returns the content byte count and hash.
func hashContentFile(path string) (int64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return 0, 0, err
		}
		defer zr.Close()
		r = zr
	}
	h := fnv.New64a()
	n, err := io.Copy(h, r)
	if err != nil {
		return 0, 0, err
	}
	return n, h.Sum64(), nil
}

// writeFileAtomic writes data to path durably: into a tmp file first, fsynced
// and closed, then renamed over path, then the parent directory fsynced so
// the rename itself survives a crash. A reader can only ever observe the old
// content or the new — never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

// fsyncDir fsyncs a directory, making recently renamed entries durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
