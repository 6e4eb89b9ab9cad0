package keygen

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/dbhammer/mirage/internal/relalg"
)

// noBound is solveX's bound parameter for a run without the certified stop.
func noBound(*kgModel) int64 { return 0 }

// withoutJDC is kg with every distinct requirement dropped, the systems
// lowerBound models.
func withoutJDC(kg *kgModel) *kgModel {
	njdc := make([]int64, len(kg.joins))
	for k := range njdc {
		njdc[k] = relalg.CardUnknown
	}
	return buildModel(kg.joins, kg.sParts, kg.tParts, kg.njcc, njdc)
}

// bruteMinimum enumerates every vector of exact-join sums an integer
// assignment of kg (no distinct requirement) can reach, T partition by T
// partition, and returns the least Σ_k |n_jcc − sum|: without a distinct
// requirement that is the least error repair can reach. ok is false when the
// reachable set grows past what the test will enumerate.
func bruteMinimum(kg *kgModel) (best int64, ok bool) {
	var exact []int
	for k := range kg.joins {
		if kg.njcc[k] != unknownCard {
			exact = append(exact, k)
		}
	}
	type sums [4]int32
	vec := func(m uint64) (v sums) {
		for i, k := range exact {
			v[i] = int32(m >> uint(k) & 1)
		}
		return v
	}
	add := func(a, b sums) sums {
		for i := range a {
			a[i] += b[i]
		}
		return a
	}
	reach := map[sums]bool{{}: true}
	for _, tp := range kg.tParts {
		var classes []sums
		for _, sp := range kg.sParts {
			if v := vec(sp.mask & tp.mask); !slices.Contains(classes, v) {
				classes = append(classes, v)
			}
		}
		part := map[sums]bool{{}: true} // sums of this partition's rows
		for range tp.rows {
			next := make(map[sums]bool)
			for s := range part {
				for _, c := range classes {
					next[add(s, c)] = true
				}
			}
			part = next
		}
		if len(reach)*len(part) > 300_000 {
			return 0, false
		}
		next := make(map[sums]bool)
		for s := range reach {
			for p := range part {
				next[add(s, p)] = true
			}
		}
		reach = next
	}
	best = math.MaxInt64
	for s := range reach {
		var e int64
		for i, k := range exact {
			d := kg.njcc[k] - int64(s[i])
			e += max(d, -d)
		}
		best = min(best, e)
	}
	return best, true
}

// TestLowerBoundNeverExceedsOptimum: on random x-systems small enough to
// enumerate, lowerBound never exceeds the least error any assignment
// reaches, and neither does certify on arbitrary duals — out of the dual box,
// huge or NaN — because certify, not the simplex, is what makes the bound
// valid. The distinct requirements are dropped (a unit with one gets 0).
func TestLowerBoundNeverExceedsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	duals := rand.New(rand.NewSource(31))
	checked, equal, positive := 0, 0, 0
	for range 400 {
		kg := withoutJDC(randomXModel(rng))
		opt, ok := bruteMinimum(kg)
		if !ok {
			continue
		}
		checked++
		b := kg.lowerBound()
		if b > opt {
			t.Fatalf("model %d: bound %d above the optimum %d (targets %v)", checked, b, opt, kg.njcc)
		}
		if b == opt {
			equal++
		}
		if b > 0 {
			positive++
		}
		lp := kg.newBoundLP()
		for range 20 {
			v := make([]float64, len(kg.joins))
			for k := range v {
				switch duals.Intn(5) {
				case 0:
					v[k] = math.NaN()
				case 1:
					v[k] = (duals.Float64() - 0.5) * 1e6
				default:
					v[k] = (duals.Float64() - 0.5) * 6
				}
			}
			if c := lp.certify(v); c > opt {
				t.Fatalf("model %d: duals %v certify %d, above the optimum %d", checked, v, c, opt)
			}
		}
	}
	t.Logf("bound equals the optimum on %d of %d enumerated systems (%d with a positive bound)", equal, checked, positive)
	if checked < 200 || positive < checked/4 {
		t.Fatalf("%d systems enumerated, %d with a positive bound: the oracle compared too little", checked, positive)
	}
	// The LP relaxation of these systems is tight in practice; a bound
	// that falls short often is a solver that stops early.
	if equal < checked*9/10 {
		t.Fatalf("bound equals the optimum on only %d of %d systems", equal, checked)
	}
}

// TestBoundStopMatchesUnbounded: solveX with the lower bound must commit
// what it commits without it — the same x and residuals, and per-attempt
// best errors that are a prefix of the unbounded run's — on the paper
// model, 120 random x-systems and 40 larger ones, at seeds 1–3, with 0, 1, 3
// and 7 spare workers. The bound must have cut some run short, or the
// comparison proved nothing.
func TestBoundStopMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	models := []*kgModel{paperModel(t)}
	for range 120 {
		models = append(models, randomXModel(rng))
	}
	for range 40 {
		kg := randomXModelUpTo(rng, 6, 16, 24)
		models = append(models, kg, withoutJDC(kg))
	}
	ctx := context.Background()
	cut, runs := 0, 0
	for i, kg := range models {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := Config{Seed: seed}
			for _, helpers := range []int{0, 1, 3, 7} {
				solve := func(bound func(*kgModel) int64) *xSolve {
					pool := &spares{}
					pool.put(helpers)
					r, err := kg.solveX(ctx, cfg, pool, (*repairState).repair, bound)
					if err != nil {
						t.Fatal(err)
					}
					if n := pool.n.Load(); n != int64(helpers) {
						t.Fatalf("model %d seed %d: %d of %d spare workers handed back", i, seed, n, helpers)
					}
					return r
				}
				got, want := solve((*kgModel).lowerBound), solve(noBound)
				if !slices.Equal(got.x, want.x) || !slices.Equal(got.residual, want.residual) ||
					len(got.errs) > len(want.errs) || !slices.Equal(got.errs, want.errs[:len(got.errs)]) {
					t.Fatalf("model %d seed %d, %d helpers: bounded x=%v residual=%v best=%v; unbounded x=%v residual=%v best=%v",
						i, seed, helpers, got.x, got.residual, got.errs, want.x, want.residual, want.errs)
				}
				if slices.Min(got.errs) < got.bound {
					t.Fatalf("model %d seed %d: an attempt reached %d, below the bound %d", i, seed, slices.Min(got.errs), got.bound)
				}
				runs++
				if len(got.errs) < len(want.errs) {
					cut++
				}
			}
		}
	}
	t.Logf("the bound cut %d of %d runs short", cut, runs)
	if cut == 0 {
		t.Fatal("the bound never ended a run early")
	}
}
