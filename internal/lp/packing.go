package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ctxCheckStride is how many simplex pivots run between context polls in
// SolveCtx. Small enough that a slot budget cuts a runaway solve promptly,
// large enough that the poll never shows up in profiles.
const ctxCheckStride = 64

// PackingSolver is a revised primal simplex specialized to packing LPs:
//
//	maximize cᵀx  subject to  Ax ≤ b,  x ≥ 0,  b ≥ 0.
//
// All rows are ≤ with non-negative right-hand sides, so the all-slack basis
// is feasible and no phase 1 is needed. Columns are sparse and can be added
// between solves, which makes the type the master problem of the
// column-generation loop in internal/flow: Solve, read Duals, price new
// columns, AddColumn, Solve again (warm-started from the current basis).
type PackingSolver struct {
	m   int
	b   []float64
	col []packedColumn

	// Basis state. basis[i] identifies the basic variable of row i:
	// values ≥ 0 are structural column indices, values < 0 encode slack
	// −(row+1).
	basis   []int
	inBasis []bool // per structural column
	// binv is B⁻¹ stored column-major: binv[j][i] is entry (i, j). The
	// entering direction B⁻¹·A_j and the pivot update then stream whole
	// columns through contiguous memory. binv never holds −0 (see pivot).
	binv   [][]float64
	xb     []float64
	solved bool

	// Incrementally maintained views of the basis, kept in sync by
	// pivot/resetBasis/refactorize so the solve loop and accessors stop
	// recomputing them:
	//
	//	y            — the (unclamped) duals c_B·B⁻¹; pivoting updates them
	//	               in O(m) via y += rc/d_r · (B⁻¹)_r instead of the
	//	               O(m²) from-scratch product per iteration.
	//	slackInBasis — per row, whether its slack is basic (replaces a
	//	               linear basis scan per pricing candidate).
	//	basisRowOf   — structural column → basis row, or −1 (makes Primal
	//	               O(1)).
	y            []float64
	slackInBasis []bool
	basisRowOf   []int

	// MaxIter caps pivots per Solve call; 0 means automatic.
	MaxIter int
	// pivots counts total pivots across Solve calls (refactorization
	// schedule and tests).
	pivots int
	// dirBuf is SolveCtx's reusable entering-direction column B⁻¹·A_j.
	dirBuf []float64
	// colBuf is AddColumn's reusable entry-merge scratch.
	colBuf []Entry
	// refacBuf is refactorize's reusable m×2m Gauss-Jordan workspace.
	refacBuf [][]float64
}

type packedColumn struct {
	obj     float64
	entries []Entry
}

// NewPacking creates a solver with the given row capacities. All entries of
// b must be finite and ≥ 0.
func NewPacking(b []float64) (*PackingSolver, error) {
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("lp: packing rhs[%d] = %v must be finite and >= 0", i, v)
		}
	}
	s := &PackingSolver{
		m: len(b),
		b: append([]float64(nil), b...),
	}
	s.resetBasis()
	return s, nil
}

func (s *PackingSolver) resetBasis() {
	s.basis = make([]int, s.m)
	s.binv = make([][]float64, s.m)
	s.xb = append([]float64(nil), s.b...)
	s.y = make([]float64, s.m) // all-slack basis has c_B = 0
	s.slackInBasis = make([]bool, s.m)
	// One backing array keeps the columns adjacent in memory.
	cells := make([]float64, s.m*s.m)
	for i := 0; i < s.m; i++ {
		s.basis[i] = -(i + 1)
		s.binv[i] = cells[i*s.m : (i+1)*s.m : (i+1)*s.m]
		s.binv[i][i] = 1
		s.slackInBasis[i] = true
	}
	s.inBasis = make([]bool, len(s.col))
	s.basisRowOf = make([]int, len(s.col))
	for j := range s.basisRowOf {
		s.basisRowOf[j] = -1
	}
	s.solved = false
}

// NumRows returns the number of rows.
func (s *PackingSolver) NumRows() int { return s.m }

// Pivots returns the total simplex pivots performed across all Solve calls
// — the direct measure of how much work a warm-started re-solve skipped.
func (s *PackingSolver) Pivots() int { return s.pivots }

// NumCols returns the number of structural columns.
func (s *PackingSolver) NumCols() int { return len(s.col) }

// AddColumn appends a sparse column with the given objective coefficient
// and returns its index. Entries must reference valid rows; duplicate rows
// are summed. Adding a column never invalidates the current basis.
func (s *PackingSolver) AddColumn(obj float64, entries []Entry) (int, error) {
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return 0, errors.New("lp: non-finite objective coefficient")
	}
	for _, e := range entries {
		if e.Index < 0 || e.Index >= s.m {
			return 0, fmt.Errorf("lp: column entry row %d out of range [0,%d)", e.Index, s.m)
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return 0, fmt.Errorf("lp: non-finite coefficient in row %d", e.Index)
		}
	}
	// Merge duplicate rows without a per-call map: stable-sort a scratch
	// copy by row, then sum runs left-to-right — the same per-row addition
	// order as input order, so merged values are bit-identical to the old
	// map-based merge.
	buf := append(s.colBuf[:0], entries...)
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].Index < buf[j].Index })
	es := make([]Entry, 0, len(buf))
	for i := 0; i < len(buf); {
		r := buf[i].Index
		v := buf[i].Value
		for i++; i < len(buf) && buf[i].Index == r; i++ {
			v += buf[i].Value
		}
		if v != 0 {
			es = append(es, Entry{Index: r, Value: v})
		}
	}
	s.colBuf = buf
	s.col = append(s.col, packedColumn{obj: obj, entries: es})
	s.inBasis = append(s.inBasis, false)
	s.basisRowOf = append(s.basisRowOf, -1)
	return len(s.col) - 1, nil
}

// Duals returns the dual variable of each row from the last optimal solve.
// For packing LPs the duals are ≥ 0 (up to tolerance).
func (s *PackingSolver) Duals() []float64 {
	y := append([]float64(nil), s.y...)
	for j := range y {
		if y[j] < 0 && y[j] > -1e-7 {
			y[j] = 0
		}
	}
	return y
}

// computeDuals recomputes c_B·B⁻¹ from the basis definition into s.y,
// discarding the incrementally maintained values (refactorization and
// drift tests).
func (s *PackingSolver) computeDuals() {
	for j := range s.y {
		s.y[j] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := s.objOf(s.basis[i])
		if cb == 0 {
			continue
		}
		for j, col := range s.binv {
			s.y[j] += cb * col[i]
		}
	}
}

// Objective returns the current objective value.
func (s *PackingSolver) Objective() float64 {
	var v float64
	for i, bi := range s.basis {
		v += s.objOf(bi) * s.xb[i]
	}
	return v
}

// Primal returns the value of structural column j in the current basic
// solution.
func (s *PackingSolver) Primal(j int) float64 {
	if j < 0 || j >= len(s.col) {
		return 0
	}
	if r := s.basisRowOf[j]; r >= 0 {
		return s.xb[r]
	}
	return 0
}

// Primals returns all structural values as a slice.
func (s *PackingSolver) Primals() []float64 {
	x := make([]float64, len(s.col))
	for i, bi := range s.basis {
		if bi >= 0 {
			x[bi] = s.xb[i]
		}
	}
	return x
}

// ReducedCost computes c_j − yᵀA_j for a hypothetical column without adding
// it; y must come from Duals().
func ReducedCost(obj float64, entries []Entry, y []float64) float64 {
	rc := obj
	for _, e := range entries {
		rc -= y[e.Index] * e.Value
	}
	return rc
}

func (s *PackingSolver) objOf(basisID int) float64 {
	if basisID >= 0 {
		return s.col[basisID].obj
	}
	return 0 // slack
}

// columnInto writes B⁻¹·A_j for basis entry id into out. Each entry adds
// one contiguous column of B⁻¹, so every out[i] sums its terms in entry
// order.
func (s *PackingSolver) columnInto(basisID int, out []float64) {
	if basisID < 0 {
		copy(out, s.binv[-basisID-1])
		return
	}
	for i := range out {
		out[i] = 0
	}
	for _, e := range s.col[basisID].entries {
		v := e.Value
		if v == 0 {
			continue
		}
		// out − (−v)·col is out + v·col exactly: negation is exact.
		subScaled(out, s.binv[e.Index], -v)
	}
}

// Solve optimizes from the current basis and returns the status. After
// StatusOptimal, Duals/Primal/Objective describe the optimum. The packing
// form cannot be infeasible, and with finite b it cannot be unbounded unless
// a column has no positive entries and positive objective.
func (s *PackingSolver) Solve() (Status, error) {
	return s.SolveCtx(nil)
}

// SolveCtx is Solve bounded by a context (nil = never cancelled). The
// deadline is polled every ctxCheckStride pivots — cheap relative to the
// O(m) pricing pass — and a cancelled solve returns ctx.Err() with the
// basis left in the valid (suboptimal) state of the last completed pivot,
// so a later Solve can resume from it.
func (s *PackingSolver) SolveCtx(ctx context.Context) (Status, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 500*(s.m+1) + 50*len(s.col)
		if maxIter < 20000 {
			maxIter = 20000
		}
	}
	if len(s.dirBuf) != s.m {
		s.dirBuf = make([]float64, s.m)
	}
	dir := s.dirBuf
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
		if done != nil && iter%ctxCheckStride == 0 {
			select {
			case <-done:
				return 0, ctx.Err()
			default:
			}
		}
		// s.y holds the duals of the current basis, maintained across
		// pivots in O(m); pricing reads it directly.
		y := s.y
		useBland := stall > 2*s.m+100
		entering := -1
		enterRC := 0.0
		best := tol
		for j, c := range s.col {
			if s.inBasis[j] {
				continue
			}
			rc := c.obj
			for _, e := range c.entries {
				rc -= y[e.Index] * e.Value
			}
			if rc > best {
				entering = j
				enterRC = rc
				if useBland {
					break
				}
				best = rc
			}
		}
		if entering == -1 {
			// Also consider slack re-entry (possible when duals go
			// negative due to degeneracy); slack j has rc = −y_j.
			for r := 0; r < s.m; r++ {
				if s.slackInBasis[r] {
					continue
				}
				if -y[r] > best {
					entering = -(r + 1)
					enterRC = -y[r]
					if useBland {
						break
					}
					best = -y[r]
				}
			}
		}
		if entering == -1 && best <= tol {
			s.solved = true
			return StatusOptimal, nil
		}

		s.columnInto(entering, dir)
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < s.m; i++ {
			if dir[i] > pivotTol {
				ratio := s.xb[i] / dir[i]
				if ratio < bestRatio-tol ||
					(ratio < bestRatio+tol && (leave == -1 || s.basis[i] < s.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return StatusUnbounded, nil
		}
		if bestRatio < tol {
			stall++
		} else {
			stall = 0
		}
		s.pivot(leave, entering, dir, bestRatio, enterRC)
	}
	return StatusIterLimit, nil
}

func (s *PackingSolver) pivot(leave, entering int, dir []float64, theta, rc float64) {
	old := s.basis[leave]
	if old >= 0 {
		s.inBasis[old] = false
		s.basisRowOf[old] = -1
	} else {
		s.slackInBasis[-old-1] = false
	}
	if entering >= 0 {
		s.inBasis[entering] = true
		s.basisRowOf[entering] = leave
	} else {
		s.slackInBasis[-entering-1] = true
	}
	s.basis[leave] = entering

	// Update basic solution.
	for i := range s.xb {
		if i == leave {
			continue
		}
		s.xb[i] -= theta * dir[i]
		if s.xb[i] < 0 && s.xb[i] > -1e-9 {
			s.xb[i] = 0
		}
	}
	s.xb[leave] = theta

	// Elementary row transformation of B⁻¹, applied column by column:
	// column j has pivot-row entry v = binv[j][leave]; it becomes v/d_r,
	// and every other row i loses dir[i]·v/d_r. Columns with v = 0 are
	// unchanged. dir[leave] is zeroed for the loop so the pivot row itself
	// is only rescaled.
	//
	// The loop subtracts dir[i]·v on every row, also where dir[i] = 0, whose
	// row a row-by-row update would skip. That is bit-identical because
	// x − (±0) = x for every x except −0, and binv never holds −0: the
	// identity and refactorize's output hold none, x − y is −0 only when x
	// is −0, and v·inv of nonzero v is nonzero (short of underflow below
	// 5e-324, which these magnitudes never reach).
	inv := 1 / dir[leave]
	d := dir[leave]
	dir[leave] = 0
	for j, col := range s.binv {
		v := col[leave]
		if v == 0 {
			continue
		}
		v *= inv
		col[leave] = v
		subScaled(col, dir, v)
		// Dual update: with entering reduced cost rc and pivot element
		// d_r, y' = y + (rc/d_r)·(B⁻¹)_r = y + rc·(B'⁻¹)_r, so v is the
		// transformed row's entry and the O(m²) product is unnecessary.
		if rc != 0 {
			s.y[j] += rc * v
		}
	}
	dir[leave] = d
	s.pivots++
	if s.pivots%2000 == 0 {
		s.refactorize()
	}
}

// subScaled sets dst[i] −= a·x[i] for every i < len(x), four entries per
// step. Each entry is one rounded product and one rounded difference, as
// in the plain loop; the unrolling only saves loop overhead.
func subScaled(dst, x []float64, a float64) {
	dst = dst[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d, v := dst[i:i+4:i+4], x[i:i+4:i+4]
		d[0] -= a * v[0]
		d[1] -= a * v[1]
		d[2] -= a * v[2]
		d[3] -= a * v[3]
	}
	for ; i < len(x); i++ {
		dst[i] -= a * x[i]
	}
}

// refactorize rebuilds B⁻¹ and x_B from the basis definition to wash out
// accumulated floating-point drift. It is O(m³).
func (s *PackingSolver) refactorize() {
	m := s.m
	// Build B augmented with identity, Gauss-Jordan to invert. The m×2m
	// workspace is retained across refactorizations (every 2000 pivots)
	// and zeroed explicitly, matching a fresh allocation bit-for-bit.
	if len(s.refacBuf) != m {
		s.refacBuf = make([][]float64, m)
		for i := range s.refacBuf {
			s.refacBuf[i] = make([]float64, 2*m)
		}
	}
	bmat := s.refacBuf
	for i := 0; i < m; i++ {
		row := bmat[i]
		for j := range row {
			row[j] = 0
		}
		row[m+i] = 1
	}
	for k, id := range s.basis {
		if id >= 0 {
			for _, e := range s.col[id].entries {
				bmat[e.Index][k] = e.Value
			}
		} else {
			bmat[-id-1][k] = 1
		}
	}
	for c := 0; c < m; c++ {
		// Partial pivoting.
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		if math.Abs(bmat[p][c]) < 1e-12 {
			// Numerically singular basis; fall back to a fresh slack
			// basis (correct, loses warm start).
			s.resetBasis()
			return
		}
		bmat[c], bmat[p] = bmat[p], bmat[c]
		inv := 1 / bmat[c][c]
		for j := c; j < 2*m; j++ {
			bmat[c][j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := bmat[r][c]
			if f == 0 {
				continue
			}
			subScaled(bmat[r][c:], bmat[c][c:], f)
		}
	}
	// Transpose into the column-major binv. Scaling a zero by a negative
	// pivot leaves −0 in bmat; storing +0 instead keeps pivot's invariant
	// and changes no other value.
	for i := 0; i < m; i++ {
		for j, v := range bmat[i][m:] {
			if v == 0 {
				v = 0
			}
			s.binv[j][i] = v
		}
	}
	// x_B = B⁻¹ b.
	for i := 0; i < m; i++ {
		var v float64
		for j := 0; j < m; j++ {
			v += s.binv[j][i] * s.b[j]
		}
		if v < 0 && v > -1e-7 {
			v = 0
		}
		s.xb[i] = v
	}
	// Wash the incremental duals along with B⁻¹: they accumulate the same
	// floating-point drift.
	s.computeDuals()
}
