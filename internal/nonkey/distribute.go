package nonkey

import (
	"fmt"
	"sort"

	"github.com/dbhammer/mirage/internal/relalg"
)

// distribute derives one column's exact value distribution from its F-type
// and f-type constraints, instantiating every parameter (Section 4.2).
//
// The cardinality space (0, D] is cut into ranges by the sorted F-type
// boundaries; each range's row capacity is the difference of adjacent
// cumulative counts. Point constraints are then bin-packed into the ranges
// (best-fit decreasing, with equal-count value reuse as the fallback), the
// domain's D unique values are budgeted across ranges, and finally every
// parameter is resolved to a concrete cardinality-space value.
func distribute(cfg Config, tbl *relalg.Table, col *relalg.Column, cc *colCons) (*ColumnPlan, error) {
	R, D := tbl.Rows, col.DomainSize
	if D > R {
		return nil, fmt.Errorf("domain size %d exceeds row count %d", D, R)
	}
	if cc == nil {
		cc = &colCons{}
	}

	// 1. Sort F-type constraints by cumulative count; equal counts share a
	// boundary. Boundaries split (0, D] into len(bounds)+1 ranges.
	type boundary struct {
		count int64
		fs    []*fcons
	}
	byCount := make(map[int64]*boundary)
	for _, f := range cc.fcons {
		if f.count < 0 || f.count > R {
			return nil, fmt.Errorf("F-constraint count %d outside [0,%d]", f.count, R)
		}
		b, ok := byCount[f.count]
		if !ok {
			b = &boundary{count: f.count}
			byCount[f.count] = b
		}
		b.fs = append(b.fs, f)
	}
	bounds := make([]*boundary, 0, len(byCount))
	for _, b := range byCount {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].count < bounds[j].count })

	type rng struct {
		cap    int64 // row capacity of the range
		points []*pointCons
		used   int64 // rows consumed by packed points
		vals   int64 // unique values assigned (budgeting step)
	}
	ranges := make([]*rng, len(bounds)+1)
	prev := int64(0)
	for i, b := range bounds {
		ranges[i] = &rng{cap: b.count - prev}
		prev = b.count
	}
	ranges[len(bounds)] = &rng{cap: R - prev}

	// 2a. Parameter-level deduplication: rewritten forests can contribute
	// several points for one parameter (cloned literals in split trees).
	// Equal counts collapse to one value; conflicting counts keep the
	// first (the original plan's view) and drop the rest best-effort.
	points := dedupeByParam(cc.points)

	// 2b. Capacity-aware merging: sharing one value between equal-count
	// constraints is only forced when the point mass exceeds the row
	// budget (Section 4.2's reuse fallback); merging eagerly would alias
	// unrelated constraints (e.g. three region filters landing on one
	// region). Merge the largest equal pair only while over budget.
	points = mergeWhileOverCapacity(points, R, D-int64(len(ranges)))

	sort.SliceStable(points, func(i, j int) bool { return points[i].count > points[j].count })
	var placed []*pointCons
	for _, pc := range points {
		if pc.count < 0 || pc.count > R {
			return nil, fmt.Errorf("point constraint count %d outside [0,%d]", pc.count, R)
		}
		if pc.count == 0 {
			resolveZeroPoint(pc)
			continue
		}
		if pc.shared != nil {
			continue // merged onto another point
		}
		bestIdx, bestResidual := -1, int64(-1)
		for i, r := range ranges {
			residual := r.cap - r.used
			if residual >= pc.count && (bestIdx == -1 || residual < bestResidual) {
				bestIdx, bestResidual = i, residual
			}
		}
		if bestIdx >= 0 {
			ranges[bestIdx].points = append(ranges[bestIdx].points, pc)
			ranges[bestIdx].used += pc.count
			placed = append(placed, pc)
			continue
		}
		// Packing failed: fall back to equal-count value reuse
		// (Section 4.2 step 2).
		if !pc.noReuse {
			if twin := findTwin(placed, pc); twin != nil {
				pc.shared = twin
				if pc.group != nil {
					if pc.group.taken == nil {
						pc.group.taken = make(map[*pointCons]bool)
					}
					pc.group.taken[twin] = true
				}
				continue
			}
		}
		// Conflicting joint requirements (e.g. the same column pinned by
		// overlapping queries) can be genuinely unpackable; truncate into
		// the roomiest range rather than failing the whole table — the
		// residual shows up as a bounded validation deviation.
		if pc.noReuse {
			return nil, fmt.Errorf("bound-row constraint of %d rows fits no CDF range", pc.count)
		}
		bestIdx, bestResidual = -1, -1
		for i, r := range ranges {
			if residual := r.cap - r.used; residual > bestResidual {
				bestIdx, bestResidual = i, residual
			}
		}
		if bestIdx < 0 || bestResidual <= 0 {
			return nil, fmt.Errorf("point constraint of %d rows fits no CDF range", pc.count)
		}
		pc.count = bestResidual
		ranges[bestIdx].points = append(ranges[bestIdx].points, pc)
		ranges[bestIdx].used += pc.count
		placed = append(placed, pc)
	}

	// 3. Budget the D unique values across ranges: every point consumes one
	// value; a range with leftover rows needs at least one free value to
	// carry them; each free value needs at least one row.
	var minVals, maxVals int64
	for _, r := range ranges {
		p := int64(len(r.points))
		residual := r.cap - r.used
		mn := p
		if residual > 0 {
			mn++
		}
		r.vals = mn
		minVals += mn
		maxVals += p + residual
	}
	if D < minVals || D > maxVals {
		return nil, fmt.Errorf("domain size %d incompatible with constraints (need [%d,%d] values)", D, minVals, maxVals)
	}
	leftover := D - minVals
	for leftover > 0 {
		progressed := false
		for _, r := range ranges {
			if leftover == 0 {
				break
			}
			slack := (int64(len(r.points)) + (r.cap - r.used)) - r.vals
			if slack > 0 {
				r.vals++
				leftover--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("internal: value budgeting stalled")
		}
	}

	// 4. Resolve positions: points first within each range, then free
	// values; boundaries are the cumulative value counts. Finally spread
	// each range's residual rows across its free values (Section 4.3's
	// uniform choice) and instantiate parameters.
	counts := make([]int64, D)
	pos := int64(0)
	for i, r := range ranges {
		freeVals := r.vals - int64(len(r.points))
		residual := r.cap - r.used
		for _, pc := range r.points {
			pos++
			pc.value = pos
			counts[pos-1] = pc.count
		}
		if freeVals > 0 {
			base, rem := residual/freeVals, residual%freeVals
			for j := int64(0); j < freeVals; j++ {
				pos++
				c := base
				if j < rem {
					c++
				}
				counts[pos-1] = c
			}
		} else if residual != 0 {
			return nil, fmt.Errorf("internal: range %d has %d residual rows and no free values", i, residual)
		}
		if i < len(bounds) {
			for _, f := range bounds[i].fs {
				v := pos
				if f.exclusive {
					v++
				}
				f.p.Set(v)
			}
		}
	}
	if pos != D {
		return nil, fmt.Errorf("internal: assigned %d of %d values", pos, D)
	}

	// Resolve shared and grouped points.
	for _, pc := range cc.points {
		if pc.shared != nil {
			pc.value = pc.shared.value
		}
	}
	resolveParams(cc.points)

	var total int64
	for _, c := range counts {
		total += c
	}
	if total != R {
		return nil, fmt.Errorf("internal: distribution sums to %d rows, want %d", total, R)
	}
	return &ColumnPlan{Col: col, Rows: R, Counts: counts}, nil
}

// dedupeByParam collapses points that constrain the same parameter: equal
// counts share a value; unequal counts keep the first point's constraint.
func dedupeByParam(points []*pointCons) []*pointCons {
	owner := make(map[*relalg.Param]*pointCons)
	out := make([]*pointCons, 0, len(points))
	for _, pc := range points {
		prm := pc.p
		if prm == nil && pc.group != nil {
			prm = pc.group.p
		}
		if prm == nil {
			out = append(out, pc)
			continue
		}
		if first, ok := owner[prm]; ok && pc.group == nil && first.group == nil {
			if first.count == pc.count && !pc.noReuse && !first.noReuse {
				pc.shared = first
				out = append(out, pc)
				continue
			}
			if pc.noReuse {
				// Bound-row anchors must survive; keep both points (the
				// anchor's value wins the parameter, see resolveParams).
				out = append(out, pc)
				owner[prm] = pc
				continue
			}
			// Conflicting count: drop (first writer wins; the sibling
			// view's constraint is satisfied best-effort).
			continue
		}
		if _, ok := owner[prm]; ok && (pc.group != nil || owner[prm].group != nil) {
			// A parameter may not own two set groups; keep the first.
			if pc.group != owner[prm].group {
				continue
			}
		}
		owner[prm] = pc
		out = append(out, pc)
	}
	return out
}

// mergeWhileOverCapacity shares values between point constraints while the
// row budget or the value (domain) budget is exceeded. Equal-count pairs
// merge exactly; when none remain, the closest-count pair merges
// best-effort (the smaller constraint deviates by the difference).
func mergeWhileOverCapacity(points []*pointCons, rows, valueBudget int64) []*pointCons {
	var total, live int64
	for _, pc := range points {
		if pc.shared == nil {
			total += pc.count
			live++
		}
	}
	if valueBudget < 1 {
		valueBudget = 1
	}
	for total > rows || live > valueBudget {
		var a, b *pointCons
		bestDiff := int64(1) << 60
		for i := range points {
			if points[i].shared != nil || points[i].noReuse {
				continue
			}
			for j := i + 1; j < len(points); j++ {
				if points[j].shared != nil || points[j].noReuse {
					continue
				}
				if points[i].group != nil && points[i].group == points[j].group {
					continue
				}
				// A group may not alias two of its members to one value,
				// directly or transitively.
				if points[i].group != nil && points[i].group.taken[points[j]] {
					continue
				}
				if points[j].group != nil && points[j].group.taken[points[i]] {
					continue
				}
				diff := points[i].count - points[j].count
				if diff < 0 {
					diff = -diff
				}
				if diff < bestDiff {
					a, b, bestDiff = points[i], points[j], diff
				}
			}
		}
		if a == nil || (bestDiff > 0 && total <= rows && live <= valueBudget) {
			break
		}
		if a.count < b.count {
			a, b = b, a // keep the larger; the smaller shares (best-effort if unequal)
		}
		b.shared = a
		if b.group != nil {
			if b.group.taken == nil {
				b.group.taken = make(map[*pointCons]bool)
			}
			b.group.taken[a] = true
			// Aliasing a shared target makes its pre-existing sharers part
			// of this group's footprint too.
			for _, other := range points {
				if other.shared == a && other.group == b.group && other != b {
					b.group.taken[a] = true
				}
			}
		}
		total -= b.count
		live--
	}
	return points
}

// findTwin locates a placed point with the same count that may share its
// value. Members of one set group never share with each other: the group's
// IN-list counts each value's rows once, so duplicated values would shrink
// the effective cardinality.
func findTwin(placed []*pointCons, pc *pointCons) *pointCons {
	for _, cand := range placed {
		if cand.count != pc.count || cand.noReuse {
			continue
		}
		if pc.group != nil {
			if cand.group == pc.group || pc.group.taken[cand] {
				continue
			}
		}
		return cand
	}
	return nil
}

// resolveZeroPoint instantiates a zero-cardinality point: the parameter is
// NULL (matches no row) and set groups get an empty list.
func resolveZeroPoint(pc *pointCons) {
	pc.value = relalg.NullValue
	if pc.group != nil {
		if pc.group.p != nil && !pc.group.p.Instantiated {
			pc.group.p.SetList(nil)
		}
		return
	}
	if pc.p != nil {
		pc.p.Set(relalg.NullValue)
	}
}

// resolveParams writes resolved values into scalar params and gathers set
// groups into list params. Bound-row anchors (noReuse) are written last so
// their value wins shared parameters. Groups resolve in first-seen point
// order: two groups may share one in-list parameter (TPC-H q19), and the
// later group's list must win it on every run, not in map order.
func resolveParams(points []*pointCons) {
	var groups []*setGroup
	seen := make(map[*setGroup]bool)
	for pass := 0; pass < 2; pass++ {
		for _, pc := range points {
			if pc.group != nil {
				if !seen[pc.group] {
					seen[pc.group] = true
					groups = append(groups, pc.group)
				}
				continue
			}
			if (pc.noReuse) != (pass == 1) {
				continue
			}
			if pc.p != nil && pc.value != 0 {
				pc.p.Set(pc.value)
			}
		}
	}
	for _, g := range groups {
		var list []int64
		for _, m := range g.points {
			if m.value != 0 && m.value != relalg.NullValue {
				list = append(list, m.value)
			}
		}
		g.p.SetList(list)
	}
}
