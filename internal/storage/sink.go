package storage

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Sink is the output side of out-of-core generation: it hands out one
// TableWriter per exported table, and the streaming exporter writes encoded
// shards into it as soon as the table's dependency wave has committed. The
// Commit/Abort protocol guarantees that a failed or cancelled run never
// leaves a torn file behind.
type Sink interface {
	// OpenTable starts the export of one table. The returned writer
	// receives the table's CSV bytes in order; exactly one of Commit or
	// Abort must be called afterwards.
	OpenTable(name string) (TableWriter, error)
}

// TableWriter receives one table's export stream.
type TableWriter interface {
	io.Writer
	// Commit finalizes the table (flush, close, atomic rename).
	Commit() error
	// Abort discards the table, removing any partial output.
	Abort() error
}

// DirSink writes each table as <dir>/<table>.csv (or .csv.gz with Gzip
// set). Data lands in a .tmp file first and is renamed on Commit, so a
// crashed or aborted export leaves no partial .csv behind. Commit is
// durable: the file is fsynced before the rename and the directory after
// it, so a table the sink reports committed survives a crash — the property
// the run manifest's resume logic builds on.
type DirSink struct {
	Dir string
	// Gzip compresses each table with gzip, appending ".gz" to the name.
	Gzip bool

	mkdir sync.Once
	mkerr error
}

// TableFile returns the file name the table commits to within Dir. The run
// manifest records it, so resume can locate and verify committed tables.
func (s *DirSink) TableFile(name string) string {
	if s.Gzip {
		return name + ".csv.gz"
	}
	return name + ".csv"
}

// OpenTable implements Sink.
func (s *DirSink) OpenTable(name string) (TableWriter, error) {
	s.mkdir.Do(func() { s.mkerr = os.MkdirAll(s.Dir, 0o755) })
	if s.mkerr != nil {
		return nil, s.mkerr
	}
	final := filepath.Join(s.Dir, s.TableFile(name))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &dirTableWriter{f: f, tmp: tmp, final: final}
	if s.Gzip {
		w.gz = gzip.NewWriter(f)
	}
	return w, nil
}

type dirTableWriter struct {
	f          *os.File
	gz         *gzip.Writer
	tmp, final string
	// Commit progress markers: a failed Commit may be retried (e.g. by
	// RetrySink after a transient error) and resumes at the first step that
	// has not completed, instead of re-closing closed handles.
	gzClosed bool
	closed   bool
	renamed  bool
}

// maxFileWrite bounds one write(2) to the table file. The exporter hands over
// whole encoded shards (about 4 MiB), and the page cache sizes its folios by
// the length of the write: the larger the call, the higher the order it
// allocates, and the more kernel CPU time that costs, swinging run to run.
// Measured on ext4, Linux 6.18, 200 MiB written and then fsynced, five times
// per size (all of it sys time): calls of 32 or 64 KiB 52–128 ms, 128 KiB
// 45–262 ms, 256 KiB 144–461 ms, 512 KiB 0.43–1.18 s; 64 MiB in calls of
// 1–4 MiB 0.03–1.5 s with the fsync after it up to 1 s instead of 0.08 s.
const maxFileWrite = 64 << 10

func (w *dirTableWriter) Write(p []byte) (int, error) {
	if w.gz != nil {
		return w.gz.Write(p)
	}
	n := 0
	for len(p) > maxFileWrite {
		m, err := w.f.Write(p[:maxFileWrite])
		n += m
		if err != nil {
			return n, err
		}
		p = p[maxFileWrite:]
	}
	m, err := w.f.Write(p)
	return n + m, err
}

// Commit finalizes the table durably: flush the compressor, fsync and close
// the file, rename it into place, and fsync the parent directory so the
// rename itself survives a crash. Each step is recorded, so a retried Commit
// after a transient failure continues where the previous attempt stopped; a
// failed Commit leaves the .tmp file for Abort to clean up.
func (w *dirTableWriter) Commit() error {
	if w.gz != nil && !w.gzClosed {
		if err := w.gz.Close(); err != nil {
			return err
		}
		w.gzClosed = true
	}
	if !w.closed {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			w.closed = true // a failed close still invalidates the handle
			return err
		}
		w.closed = true
	}
	if !w.renamed {
		if err := os.Rename(w.tmp, w.final); err != nil {
			return err
		}
		w.renamed = true
	}
	return fsyncDir(filepath.Dir(w.final))
}

// Abort discards the table. All cleanup steps run even when earlier ones
// fail, and every error is reported (joined), not just the last.
func (w *dirTableWriter) Abort() error {
	var cerr error
	if !w.closed {
		cerr = w.f.Close()
		w.closed = true
	}
	var rerr error
	if !w.renamed {
		if rerr = os.Remove(w.tmp); errors.Is(rerr, os.ErrNotExist) {
			rerr = nil // repeated Abort, or Commit failed before creating tmp state
		}
	}
	return errors.Join(cerr, rerr)
}

// CountSink discards all bytes, counting them — the null sink used by
// benchmarks and dry runs to measure pure generation+encode throughput.
type CountSink struct {
	mu     sync.Mutex
	tables int
	bytes  int64
}

// OpenTable implements Sink.
func (s *CountSink) OpenTable(string) (TableWriter, error) {
	return &countTableWriter{sink: s}, nil
}

// Tables returns the number of committed tables.
func (s *CountSink) Tables() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables
}

// Bytes returns the total bytes of committed tables.
func (s *CountSink) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

type countTableWriter struct {
	sink *CountSink
	n    int64
	done bool
}

func (w *countTableWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *countTableWriter) Commit() error {
	if w.done {
		return fmt.Errorf("storage: table committed twice")
	}
	w.done = true
	w.sink.mu.Lock()
	w.sink.tables++
	w.sink.bytes += w.n
	w.sink.mu.Unlock()
	return nil
}

func (w *countTableWriter) Abort() error { return nil }
