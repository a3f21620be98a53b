package dp

import (
	"fmt"
	"math"

	"repro/internal/comb"
	"repro/internal/part"
)

// KernelMode selects how an internal node combines its children's tables
// (the hot inner step of Algorithm 2).
//
// The direct kernel re-runs the full (Ca, Cp) split contraction for every
// neighbor: O(deg(v) · C(k,h)·C(h,aN)) work per vertex. The aggregated
// kernel exploits that the contraction distributes over the neighbor sum
// — it first accumulates agg[Cp] = Σ_{u∈N(v)} table_p[u][Cp] into a dense
// per-worker scratch buffer (an SpMM row: adjacency × passive-count
// matrix) and then contracts ONCE against the active row, reducing the
// dominant term to O(deg(v) · C(k,pN) + C(k,h)·C(h,aN)) on sequential
// memory. Counts are integer-valued float64s, so both summation orders
// are exact and the results are bit-identical (up to 2^53).
type KernelMode int

const (
	// KernelAuto picks direct or aggregated per vertex using a
	// degree/width cost model (the default).
	KernelAuto KernelMode = iota
	// KernelDirect always re-contracts per neighbor (the seed behavior).
	KernelDirect
	// KernelAggregate always aggregates neighbor rows first.
	KernelAggregate
)

func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelDirect:
		return "direct"
	case KernelAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(m))
	}
}

// kernel branch identifiers: which specialization an internal node uses.
// The branch is a property of the node (child sizes + config), fixed for
// all vertices of a pass.
type kernelBranch uint8

const (
	branchGeneral       kernelBranch = iota // general (Ca, Cp) split contraction
	branchSize2                             // both children single vertices
	branchActiveSingle                      // active child is a single vertex
	branchPassiveSingle                     // passive child is a single vertex
)

// neverAggregate is an unreachable degree threshold.
const neverAggregate = math.MaxInt

// directCellCost calibrates the cost model for memory behavior: one cell
// touched by the direct kernel (a split-table-indexed gather plus a
// dependent multiply-add, repeated per neighbor) costs about this many
// aggregated-kernel cell operations (a sequential streaming add that the
// compiler can pipeline). Measured ~2x on amd64 across the three table
// layouts; a pure operation count (factor 1) makes auto under-aggregate
// badly on mid-size nodes where the direct gather footprint no longer
// fits in L1.
const directCellCost = 2

// kernelShape is the layout-independent per-node kernel context: the
// specialization branch, the combinatorial index tables, the table
// widths, and the resolved cost-model threshold. The kernel decision
// is a function of degree and widths only, so it is identical at every
// lane count.
type kernelShape struct {
	n       *part.Node
	split   *comb.SplitTable
	singles [][]comb.SingletonEntry

	branch kernelBranch
	aN, pN int
	nc     int // NumSets of this node: C(k, h)
	ncA    int // active child width: C(k, aN)
	ncP    int // passive child width: C(k, pN)
	spn    int // splits per color set: C(h, aN)

	mode KernelMode
	// aggMinDeg is the KernelAuto decision threshold: vertices with
	// degree >= aggMinDeg run the aggregated kernel.
	aggMinDeg int
}

// kernelShapeFor builds the per-node kernel shape, resolving the kernel
// choice. The cost model compares per-vertex work at degree d, weighting
// each cell the direct kernel touches by its access pattern: the general
// direct kernel accumulates into a register (one gather per split cell,
// weight α = directCellCost), while the singleton-entry kernels scatter
// into buf per entry (source gather + buf scatter, weight 2α). Aggregated
// cells are sequential streaming adds (weight 1), and the aggregated
// contraction runs the same direct inner loop once per vertex instead of
// once per neighbor:
//
//	general:        α·d·nc·spn vs d·ncP + α·nc·spn    (E = C(k-1,h-1))
//	active-single:  2α·d·E     vs d·ncP + 2α·E
//	passive-single: 2α·d·E     vs d + 2α·k·E
//	size-2:         α·d        vs d + k   (colorAgg grouping)
//
// and solves each inequality for the break-even degree once per node.
// Aggregation never wins where the inequality has no solution — only
// active-single nodes on the upper half of the template, where each
// neighbor's dense passive row (ncP = C(k,h-1) cells) is wider than the
// 2α-weighted entry list the direct kernel reads.
func (e *Engine) kernelShapeFor(n *part.Node, nc int) kernelShape {
	ctx := kernelShape{
		n:       n,
		split:   e.splits[[2]int{n.Size(), n.Active.Size()}],
		singles: e.singles[n.Size()],
		aN:      n.Active.Size(),
		pN:      n.Passive.Size(),
		nc:      nc,
		mode:    e.cfg.Kernel,
	}
	ctx.ncA = int(comb.Binomial(e.k, ctx.aN))
	ctx.ncP = int(comb.Binomial(e.k, ctx.pN))
	ctx.spn = ctx.split.SplitsPerSet

	special := !e.cfg.DisableLeafSpecial
	scatter := 2 * directCellCost // per-entry weight of the scatter kernels
	switch {
	case special && ctx.aN == 1 && ctx.pN == 1:
		ctx.branch = branchSize2
		// Grouping neighbors by color saves the per-neighbor pair-index
		// scatter: α·d vs d + k, i.e. d·(α-1) > k.
		ctx.aggMinDeg = e.k/(directCellCost-1) + 1
	case special && ctx.singles != nil && ctx.aN == 1:
		ctx.branch = branchActiveSingle
		// E = entries per color = C(k-1, h-1); aggregation streams the
		// full ncP-wide passive row per neighbor instead of E scattered
		// entries, so it wins when 2α·d·E > d·ncP + 2α·E, i.e.
		// d·(2α·E - ncP) > 2α·E.
		if entries := int(comb.Binomial(e.k-1, n.Size()-1)); scatter*entries > ctx.ncP {
			ctx.aggMinDeg = (scatter*entries)/(scatter*entries-ctx.ncP) + 1
		} else {
			ctx.aggMinDeg = neverAggregate
		}
	case special && ctx.singles != nil && ctx.pN == 1:
		ctx.branch = branchPassiveSingle
		// E = entries per color = C(k-1, h-1); folding neighbors into k
		// per-color sums costs one L1 add each and defers the entry
		// scatter to once per color: 2α·d·E > d + 2α·k·E, i.e.
		// d·(2α·E - 1) > 2α·k·E.
		entries := int(comb.Binomial(e.k-1, n.Size()-1))
		ctx.aggMinDeg = (scatter*e.k*entries)/(scatter*entries-1) + 1
	default:
		ctx.branch = branchGeneral
		// Aggregate wins when α·d·nc·spn > d·ncP + α·nc·spn, i.e.
		// d·(α·nc·spn - ncP) > α·nc·spn. Since nc·spn counts disjoint
		// (Ca, Cp) pairs it is always ≥ ncP, so the threshold is finite
		// (2 at the root, where nc·spn == ncP).
		ncSpn := directCellCost * ctx.nc * ctx.spn
		ctx.aggMinDeg = ncSpn/(ncSpn-ctx.ncP) + 1
	}
	return ctx
}

// useAggregate resolves the kernel for one vertex of degree deg.
func (ctx *kernelShape) useAggregate(deg int) bool {
	switch ctx.mode {
	case KernelDirect:
		return false
	case KernelAggregate:
		return true
	default:
		return deg >= ctx.aggMinDeg
	}
}
