package mirage

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
)

// crossCommitAnnotationGolden is the FNV-64a of every annotated tree BuildProblem
// produces — each original template and each tree of its rewritten forest —
// over the seed-11 original database at SF 1, recorded before annotation
// stopped materialising joins. TestCrossCommitGoldenCSV pins what generation
// writes; this pins what it is asked to reproduce, so a change to how the
// cardinalities are read off the original database cannot move a single
// constraint unnoticed. RunFingerprint hashes the same Format text, so these
// constants also hold old manifests resumable. Re-record them only for a
// change that is meant to alter annotations.
var crossCommitAnnotationGolden = map[string]uint64{
	"ssb":   0x7ae277fc63a07bb7,
	"tpch":  0x9ed0f946ab053ce1,
	"tpcds": 0x5577cb4adc9e799c,
}

// annotationHash writes every annotated tree of the problem into one FNV-64a.
// Format prints each view's @card; the join constraints it omits are written
// after it, view by view in walk order.
func annotationHash(p *Problem) uint64 {
	h := fnv.New64a()
	tree := func(name string, root *relalg.View) {
		fmt.Fprintf(h, "%s\n%s", name, root.Format())
		root.Walk(func(v *relalg.View) { fmt.Fprintf(h, "%d/%d;", v.JCC, v.JDC) })
		io.WriteString(h, "\n")
	}
	for _, f := range p.Forests {
		tree(f.Query.Name, f.Query.Root)
		for i, t := range f.Trees {
			tree(fmt.Sprintf("%s#%d", f.Query.Name, i), t)
		}
	}
	return h.Sum64()
}

// TestCrossCommitAnnotationGolden pins the annotated templates and forests of
// SSB, TPC-H (q19 included) and TPC-DS at SF 1 across commits.
func TestCrossCommitAnnotationGolden(t *testing.T) {
	for _, name := range []string{"ssb", "tpch", "tpcds"} {
		if got, want := annotationHash(streamProblem(t, name, 1)), crossCommitAnnotationGolden[name]; got != want {
			t.Errorf("%s: annotation checksum %#016x, golden %#016x", name, got, want)
		}
	}
}
