package dp

import (
	"repro/internal/comb"
	"repro/internal/table"
)

// The tree-DP kernels, one per branch of kernel.go's shape model. They
// are lane-generic: every kernel walks the adjacency and the
// combinatorial index tables exactly once per batch and runs a flat
// float64 multiply-add over the L-lane blocks in its innermost loop; a
// single iteration is the L = 1 case. Per-lane accumulation order is
// the same for every L, and counts are integer-valued float64s, so every
// lane's result is bit-identical to a one-lane traversal of its seed.
// Zero-skip guards are kept only where they gate whole loops (a zero
// active cell contributes zero products either way), so dropping
// per-cell branches inside lane loops cannot change any value — 0·x == 0
// for the finite nonnegative counts stored here.

// vertexPass computes the lane-strided color-set rows of one vertex for
// all lanes at once and stores them into tab. The kernel decision is a
// function of degree and node shape only, so all lanes of a vertex run
// the same kernel; the tallies count lane units.
func (st *batchState) vertexPass(ctx *batchCtx, tab *table.Multi, v int32, sc *scratch) {
	if !ctx.act.Has(v) {
		return
	}
	adj := st.e.g.Adj(v)
	if len(adj) == 0 {
		return
	}
	L := st.lanes
	aggregate := ctx.useAggregate(len(adj))
	if aggregate {
		sc.aggN += int64(L)
	} else {
		sc.directN += int64(L)
	}
	buf := sc.buf[:ctx.nc*L]
	clear(buf)

	switch ctx.branch {
	case branchSize2:
		st.passSize2(ctx, v, adj, buf, sc, aggregate)
	case branchActiveSingle:
		st.passActiveSingle(ctx, v, adj, buf, sc, aggregate)
	case branchPassiveSingle:
		st.passPassiveSingle(ctx, v, adj, buf, sc, aggregate)
	default:
		if aggregate {
			st.passGeneralAggregate(ctx, v, adj, buf, sc)
		} else {
			st.passGeneralDirect(ctx, v, adj, buf, sc)
		}
	}
	// Counts are nonnegative, so "some lane contributed" is exactly
	// "some cell is nonzero": a row is stored when any lane has one.
	for _, x := range buf {
		if x != 0 {
			tab.StoreRow(v, buf)
			return
		}
	}
}

// laneActives fills sc.avB with lane j's active root cell
// act[v][{color_j(v)}] and reports whether any lane is nonzero (a
// vertex whose root cell is zero in every lane contributes nothing).
func (st *batchState) laneActives(ctx *batchCtx, v int32, sc *scratch) ([]float64, bool) {
	L := st.lanes
	avB := sc.avB[:L]
	base := int(v) * L
	any := false
	if lf, ok := ctx.act.(*leafLanes); ok {
		// Implicit leaf active child: cell (v, {color_j(v)}, j) is by
		// definition the seeded 1 (or 0 on a label mismatch).
		if !lf.ok(v) {
			return avB, false
		}
		for j := 0; j < L; j++ {
			avB[j] = 1
		}
		return avB, true
	}
	if arow := ctx.act.LaneRow(v); arow != nil {
		for j := 0; j < L; j++ {
			av := arow[int(st.colors[base+j])*L+j]
			avB[j] = av
			any = any || av != 0
		}
		return avB, any
	}
	for j := 0; j < L; j++ {
		av := ctx.act.Get(v, int32(st.colors[base+j]), j)
		avB[j] = av
		any = any || av != 0
	}
	return avB, any
}

// passSize2 handles h == 2 for all lanes: lane j contributes only the
// pair set {color_j(v), color_j(u)} with distinct colors. The aggregated
// variant groups neighbors into per-(color, lane) sums first.
func (st *batchState) passSize2(ctx *batchCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	avB, any := st.laneActives(ctx, v, sc)
	if !any {
		return
	}
	pas := ctx.pas
	vbase := int(v) * L
	if !aggregate {
		if lf, ok := pas.(*leafLanes); ok {
			// Implicit leaf passive child: lane j of neighbor u holds 1 at
			// u's own color and 0 elsewhere, so the contraction collapses
			// to one colors-vector read per (neighbor, lane) — no table.
			for _, u := range adj {
				if !lf.ok(u) {
					continue
				}
				ubase := int(u) * L
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					buf[int(comb.PairIndex(cv, cu))*L+j] += av // pv == 1
				}
			}
			return
		}
		for _, u := range adj {
			ubase := int(u) * L
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					if pv := prow[cu*L+j]; pv != 0 {
						buf[int(comb.PairIndex(cv, cu))*L+j] += av * pv
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					cv := int(st.colors[vbase+j])
					cu := int(st.colors[ubase+j])
					if cu == cv {
						continue
					}
					if pv := pas.Get(u, int32(cu), j); pv != 0 {
						buf[int(comb.PairIndex(cv, cu))*L+j] += av * pv
					}
				}
			}
		}
		return
	}
	k := st.e.k
	colorAgg := sc.colorAgg[:k*L]
	clear(colorAgg)
	pas.GatherColors(adj, st.colors, colorAgg)
	for c := 0; c < k; c++ {
		cs := colorAgg[c*L : c*L+L]
		for j, s := range cs {
			if s == 0 {
				continue
			}
			// Same-color neighbors fold into colorAgg[cv_j] but form no
			// valid pair set, so they are skipped.
			cv := int(st.colors[vbase+j])
			if c == cv {
				continue
			}
			if av := avB[j]; av != 0 {
				buf[int(comb.PairIndex(cv, c))*L+j] += av * s
			}
		}
	}
}

// passActiveSingle handles aN == 1, h > 2 for all lanes: lane j touches
// only the singleton entries of color_j(v). The aggregated variant sums
// whole lane-strided passive rows first, then walks each lane's entry
// list once.
func (st *batchState) passActiveSingle(ctx *batchCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	avB, any := st.laneActives(ctx, v, sc)
	if !any {
		return
	}
	pas := ctx.pas
	vbase := int(v) * L
	if !aggregate {
		for _, u := range adj {
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					for _, en := range ctx.singles[int(st.colors[vbase+j])] {
						buf[int(en.SetIdx)*L+j] += av * prow[int(en.RestIdx)*L+j]
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					av := avB[j]
					if av == 0 {
						continue
					}
					for _, en := range ctx.singles[int(st.colors[vbase+j])] {
						if pv := pas.Get(u, en.RestIdx, j); pv != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			}
		}
		return
	}
	agg := sc.agg[:ctx.ncP*L]
	clear(agg)
	pas.AccumulateRows(adj, agg)
	for j := 0; j < L; j++ {
		av := avB[j]
		if av == 0 {
			continue
		}
		for _, en := range ctx.singles[int(st.colors[vbase+j])] {
			buf[int(en.SetIdx)*L+j] += av * agg[int(en.RestIdx)*L+j]
		}
	}
}

// passPassiveSingle handles pN == 1, h > 2 for all lanes: for neighbor u,
// lane j touches only the singleton entries of color_j(u). The aggregated
// variant folds neighbors into k·L per-(color, lane) sums and walks each
// color's entry list once, with the lane sweep innermost on contiguous
// blocks.
func (st *batchState) passPassiveSingle(ctx *batchCtx, v int32, adj []int32, buf []float64, sc *scratch, aggregate bool) {
	L := st.lanes
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	pas := ctx.pas
	if !aggregate {
		if lf, ok := pas.(*leafLanes); ok {
			// Implicit leaf passive child: pv is 1 at u's own lane color,
			// so only that color's singleton entries contribute.
			for _, u := range adj {
				if !lf.ok(u) {
					continue
				}
				ubase := int(u) * L
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av // pv == 1
						}
					}
				}
			}
			return
		}
		for _, u := range adj {
			ubase := int(u) * L
			if prow := pas.LaneRow(u); prow != nil {
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					pv := prow[cu*L+j]
					if pv == 0 {
						continue
					}
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			} else if pas.Has(u) { // hash layout: probe per lane
				for j := 0; j < L; j++ {
					cu := int(st.colors[ubase+j])
					pv := pas.Get(u, int32(cu), j)
					if pv == 0 {
						continue
					}
					for _, en := range ctx.singles[cu] {
						if av := arow[int(en.RestIdx)*L+j]; av != 0 {
							buf[int(en.SetIdx)*L+j] += av * pv
						}
					}
				}
			}
		}
		return
	}
	k := st.e.k
	colorAgg := sc.colorAgg[:k*L]
	clear(colorAgg)
	pas.GatherColors(adj, st.colors, colorAgg)
	for c := 0; c < k; c++ {
		cs := colorAgg[c*L : c*L+L]
		nonzero := false
		for _, s := range cs {
			if s != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			continue
		}
		for _, en := range ctx.singles[c] {
			laneMulAdd(buf[int(en.SetIdx)*L:][:L], arow[int(en.RestIdx)*L:], cs)
		}
	}
}

// passGeneralDirect is the lane-widened Algorithm 2 inner step: for every
// neighbor u, every color set C, and every (Ca, Cp) split, run the
// multiply-add across all lanes of the contiguous lane blocks.
func (st *batchState) passGeneralDirect(ctx *batchCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L := st.lanes
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	pas := ctx.pas
	split, spn, nc := ctx.split, ctx.spn, ctx.nc
	for _, u := range adj {
		prow := pas.LaneRow(u)
		if prow == nil {
			if !pas.Has(u) {
				continue
			}
			prow = pas.MaterializeRow(u, sc.pasRow)
		}
		for ci := 0; ci < nc; ci++ {
			out := buf[ci*L : ci*L+L]
			base := ci * spn
			for j := base; j < base+spn; j++ {
				laneMulAdd(out, arow[int(split.ActiveIdx[j])*L:], prow[int(split.PassiveIdx[j])*L:])
			}
		}
	}
}

// passGeneralAggregate is the lane-widened SpMM restructure: one
// neighbor-aggregation sweep builds the lane-strided agg[Cp] rows, then a
// single split contraction runs against the active lane row.
func (st *batchState) passGeneralAggregate(ctx *batchCtx, v int32, adj []int32, buf []float64, sc *scratch) {
	L := st.lanes
	agg := sc.agg[:ctx.ncP*L]
	clear(agg)
	ctx.pas.AccumulateRows(adj, agg)
	arow := ctx.act.MaterializeRow(v, sc.actRow)
	split, spn, nc := ctx.split, ctx.spn, ctx.nc
	for ci := 0; ci < nc; ci++ {
		out := buf[ci*L : ci*L+L]
		base := ci * spn
		for j := base; j < base+spn; j++ {
			laneMulAdd(out, arow[int(split.ActiveIdx[j])*L:], agg[int(split.PassiveIdx[j])*L:])
		}
	}
}
