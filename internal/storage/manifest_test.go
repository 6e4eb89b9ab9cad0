package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		Workload: "ssb", SchemaHash: "00000000deadbeef", WorkloadHash: "00000000cafef00d",
		Seed: 3, SampleSize: 40000,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(dir, testFingerprint())
	if err := m.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := m.MarkPending("lineorder", "lineorder.csv"); err != nil {
		t.Fatalf("MarkPending: %v", err)
	}
	if m.Committed("lineorder") {
		t.Fatal("pending table reported committed")
	}
	if err := m.MarkCommitted("customer", "customer.csv", 300, 12345, 0xabcdef); err != nil {
		t.Fatalf("MarkCommitted: %v", err)
	}
	if !m.Committed("customer") || m.Committed("supplier") {
		t.Fatal("Committed misreports")
	}

	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if got.Version != ManifestVersion {
		t.Fatalf("version = %d, want %d", got.Version, ManifestVersion)
	}
	if got.Fingerprint != m.Fingerprint {
		t.Fatalf("fingerprint round-trip: %+v != %+v", got.Fingerprint, m.Fingerprint)
	}
	if !reflect.DeepEqual(got.Tables, m.Tables) {
		t.Fatalf("tables round-trip: %+v != %+v", got.Tables, m.Tables)
	}
	if want := []string{"customer"}; !reflect.DeepEqual(got.CommittedTables(), want) {
		t.Fatalf("CommittedTables = %v, want %v", got.CommittedTables(), want)
	}
	// Atomic save: no temp file survives a completed Save.
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest tmp file left behind: %v", err)
	}
	// A second committed mark resets a pending entry.
	if err := got.MarkCommitted("lineorder", "lineorder.csv", 12000, 99, 7); err != nil {
		t.Fatal(err)
	}
	if !got.Committed("lineorder") {
		t.Fatal("re-marked table not committed")
	}
}

func TestManifestLoadMissing(t *testing.T) {
	_, err := LoadManifest(t.TempDir())
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: err = %v, want fs.ErrNotExist", err)
	}
}

func TestManifestCheckMismatch(t *testing.T) {
	m := NewManifest(t.TempDir(), testFingerprint())
	if err := m.Check(testFingerprint()); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	fp := testFingerprint()
	fp.Seed = 4
	fp.SchemaHash = "0000000000000001"
	err := m.Check(fp)
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err = %v, want ErrManifestMismatch", err)
	}
	for _, field := range []string{"seed", "schema_hash"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("mismatch error does not name %q: %v", field, err)
		}
	}
	if strings.Contains(err.Error(), "workload_hash") {
		t.Errorf("mismatch error names a matching field: %v", err)
	}
}

// commitTable writes content through a sink's full protocol and returns the
// content hash the manifest would record.
func commitTable(t *testing.T, sink Sink, name, content string) {
	t.Helper()
	tw, err := sink.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(tw, content); err != nil {
		t.Fatal(err)
	}
	if err := tw.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestVerifyCommitted(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		sink := &DirSink{Dir: dir, Gzip: gz}
		const content = "a,b\n1,2\n3,4\n"
		commitTable(t, sink, "tbl", content)

		n, sum, err := hashContentFile(filepath.Join(dir, sink.TableFile("tbl")))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(content)) {
			t.Fatalf("gzip=%v: content bytes = %d, want %d", gz, n, len(content))
		}
		m := NewManifest(dir, testFingerprint())
		if err := m.MarkCommitted("tbl", sink.TableFile("tbl"), 2, n, sum); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyCommitted(); err != nil {
			t.Fatalf("gzip=%v: clean verify failed: %v", gz, err)
		}

		// A manifest from before cp_max_nodes and batch_size left the
		// fingerprint (both are byte-neutral) still steers a resume.
		mpath := filepath.Join(dir, ManifestName)
		b, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		old := strings.Replace(string(b), `"seed":`, `"cp_max_nodes": 7, "batch_size": 70000, "seed":`, 1)
		if old == string(b) {
			t.Fatalf("manifest has no seed field to anchor on: %s", b)
		}
		if err := os.WriteFile(mpath, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadManifest(dir)
		if err != nil {
			t.Fatalf("gzip=%v: manifest with cp_max_nodes/batch_size: %v", gz, err)
		}
		if err := loaded.Check(testFingerprint()); err != nil {
			t.Fatalf("gzip=%v: manifest with cp_max_nodes/batch_size: %v", gz, err)
		}
		if err := loaded.VerifyCommitted(); err != nil {
			t.Fatalf("gzip=%v: manifest with cp_max_nodes/batch_size: %v", gz, err)
		}

		// Corruption — append a byte (gzip: corrupt the compressed stream).
		path := filepath.Join(dir, sink.TableFile("tbl"))
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("X")
		f.Close()
		if err := m.VerifyCommitted(); !errors.Is(err, ErrManifestVerify) {
			t.Fatalf("gzip=%v: corrupted file: err = %v, want ErrManifestVerify", gz, err)
		}

		// Missing file.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyCommitted(); !errors.Is(err, ErrManifestVerify) {
			t.Fatalf("gzip=%v: missing file: err = %v, want ErrManifestVerify", gz, err)
		}
	}
}

// TestManifestVerifyHashMismatch: same size, different content — only the
// hash catches it.
func TestManifestVerifyHashMismatch(t *testing.T) {
	dir := t.TempDir()
	sink := &DirSink{Dir: dir}
	commitTable(t, sink, "tbl", "a,b\n1,2\n")
	n, sum, err := hashContentFile(filepath.Join(dir, "tbl.csv"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(dir, testFingerprint())
	if err := m.MarkCommitted("tbl", "tbl.csv", 1, n, sum); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tbl.csv"), []byte("a,b\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCommitted(); !errors.Is(err, ErrManifestVerify) {
		t.Fatalf("swapped content: err = %v, want ErrManifestVerify", err)
	}
}
