// Quickstart: the paper's running example (Figures 1-3). Two tables S and T,
// four annotated query templates covering selection, arithmetic and logical
// predicates, an equi join, a left outer join, and a foreign-key projection.
// Mirage regenerates the database with every cardinality constraint met
// exactly.
package main

import (
	"fmt"
	"log"

	"github.com/dbhammer/mirage"
	"github.com/dbhammer/mirage/internal/testutil"
)

func main() {
	// The "in-production" database (normally behind a privacy wall; the
	// workload parser only extracts cardinality constraints from it).
	original := testutil.PaperDB()

	w, err := mirage.NewWorkload(testutil.PaperSchema(), nil, testutil.PaperWorkload)
	if err != nil {
		log.Fatal(err)
	}
	problem, err := mirage.BuildProblem(original, w)
	if err != nil {
		log.Fatal(err)
	}
	result, err := mirage.Generate(problem, mirage.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("synthetic database D':")
	for _, name := range []string{"s", "t"} {
		t := result.DB.Table(name)
		fmt.Printf("  %s:", name)
		vals := make([]int64, t.Rows())
		for i := range t.Meta.Columns {
			if err := t.Fill(t.Meta.Columns[i].Name, vals, 0, int64(len(vals))); err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %s=%v", t.Meta.Columns[i].Name, vals)
		}
		fmt.Println()
	}

	fmt.Println("\ninstantiated workload W':")
	fmt.Print(w.FormatInstantiated())

	reports, err := mirage.Validate(result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("validation (relative error per query):")
	for _, r := range reports {
		fmt.Printf("  %-4s %.4f%% over %d constrained views\n", r.Query, 100*r.RelError, r.Views)
	}
}
