package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPacking is the row-major PackingSolver that the column-major one
// replaced, kept verbatim as a test-only reference: binv[i] holds row i of
// B⁻¹, columnInto gathers a column across m rows, and pivot updates row by
// row over the pivot row's nonzero support, skipping rows whose direction
// entry is 0. TestPackingMatchesRowMajorReference drives both side by side
// and compares every output bit. bland counts the pivots chosen under
// Bland's rule, so the test can show the anti-cycling path ran.
type refPacking struct {
	m            int
	b            []float64
	col          []packedColumn
	basis        []int
	inBasis      []bool
	binv         [][]float64
	xb           []float64
	y            []float64
	slackInBasis []bool
	basisRowOf   []int
	pivots       int
	bland        int
	supBuf       []int32
	supVal       []float64
	dirBuf       []float64
	colBuf       []Entry
	refacBuf     [][]float64
}

func newRefPacking(b []float64) *refPacking {
	s := &refPacking{m: len(b), b: append([]float64(nil), b...)}
	s.resetBasis()
	return s
}

func (s *refPacking) resetBasis() {
	s.basis = make([]int, s.m)
	s.binv = make([][]float64, s.m)
	s.xb = append([]float64(nil), s.b...)
	s.y = make([]float64, s.m)
	s.slackInBasis = make([]bool, s.m)
	for i := 0; i < s.m; i++ {
		s.basis[i] = -(i + 1)
		s.binv[i] = make([]float64, s.m)
		s.binv[i][i] = 1
		s.slackInBasis[i] = true
	}
	s.inBasis = make([]bool, len(s.col))
	s.basisRowOf = make([]int, len(s.col))
	for j := range s.basisRowOf {
		s.basisRowOf[j] = -1
	}
}

func (s *refPacking) AddColumn(obj float64, entries []Entry) {
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
}

func (s *refPacking) Duals() []float64 {
	y := append([]float64(nil), s.y...)
	for j := range y {
		if y[j] < 0 && y[j] > -1e-7 {
			y[j] = 0
		}
	}
	return y
}

func (s *refPacking) computeDuals() {
	for j := range s.y {
		s.y[j] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := s.objOf(s.basis[i])
		if cb == 0 {
			continue
		}
		row := s.binv[i]
		for j := 0; j < s.m; j++ {
			s.y[j] += cb * row[j]
		}
	}
}

func (s *refPacking) Objective() float64 {
	var v float64
	for i, bi := range s.basis {
		v += s.objOf(bi) * s.xb[i]
	}
	return v
}

func (s *refPacking) Primals() []float64 {
	x := make([]float64, len(s.col))
	for i, bi := range s.basis {
		if bi >= 0 {
			x[bi] = s.xb[i]
		}
	}
	return x
}

func (s *refPacking) objOf(basisID int) float64 {
	if basisID >= 0 {
		return s.col[basisID].obj
	}
	return 0
}

func (s *refPacking) columnInto(basisID int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if basisID >= 0 {
		for _, e := range s.col[basisID].entries {
			v := e.Value
			if v == 0 {
				continue
			}
			for i := 0; i < s.m; i++ {
				out[i] += s.binv[i][e.Index] * v
			}
		}
		return
	}
	r := -basisID - 1
	for i := 0; i < s.m; i++ {
		out[i] = s.binv[i][r]
	}
}

func (s *refPacking) Solve() Status {
	maxIter := 500*(s.m+1) + 50*len(s.col)
	if maxIter < 20000 {
		maxIter = 20000
	}
	if len(s.dirBuf) != s.m {
		s.dirBuf = make([]float64, s.m)
	}
	dir := s.dirBuf
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
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
			return StatusOptimal
		}
		if useBland {
			s.bland++
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
			return StatusUnbounded
		}
		if bestRatio < tol {
			stall++
		} else {
			stall = 0
		}
		s.pivot(leave, entering, dir, bestRatio, enterRC)
	}
	return StatusIterLimit
}

func (s *refPacking) pivot(leave, entering int, dir []float64, theta, rc float64) {
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
	pr := s.binv[leave]
	inv := 1 / dir[leave]
	sup := s.supBuf[:0]
	val := s.supVal[:0]
	for j, v := range pr {
		if v != 0 {
			v *= inv
			pr[j] = v
			sup = append(sup, int32(j))
			val = append(val, v)
		}
	}
	s.supBuf = sup
	s.supVal = val
	for i := range s.binv {
		if i == leave {
			continue
		}
		f := dir[i]
		if f == 0 {
			continue
		}
		row := s.binv[i]
		for k, j := range sup {
			row[j] -= f * val[k]
		}
	}
	if rc != 0 {
		for k, j := range sup {
			s.y[j] += rc * val[k]
		}
	}
	s.pivots++
	if s.pivots%2000 == 0 {
		s.refactorize()
	}
}

func (s *refPacking) refactorize() {
	m := s.m
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
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		if math.Abs(bmat[p][c]) < 1e-12 {
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
			for j := c; j < 2*m; j++ {
				bmat[r][j] -= f * bmat[c][j]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], bmat[i][m:])
	}
	for i := 0; i < m; i++ {
		var v float64
		for j := 0; j < m; j++ {
			v += s.binv[i][j] * s.b[j]
		}
		if v < 0 && v > -1e-7 {
			v = 0
		}
		s.xb[i] = v
	}
	s.computeDuals()
}

// refCase is one side-by-side run: an m-row packing LP that starts with n
// random columns and gains add more after each of rounds solves. A share
// zeroRHS of its rows have capacity 0, which makes pivots degenerate.
type refCase struct {
	seed                int64
	m, n, add, rounds   int
	zeroRHS             float64
	wantRefactor, bland bool
}

// randomColumn draws a sparse nonnegative column; duplicate rows are
// allowed, so AddColumn's merge is exercised on both sides.
func randomColumn(rng *rand.Rand, m int) (float64, []Entry) {
	nnz := 1 + rng.Intn(min(m, 6))
	es := make([]Entry, nnz)
	for k := range es {
		es[k] = Entry{Index: rng.Intn(m), Value: 0.1 + rng.Float64()*2}
	}
	return 0.5 + rng.Float64()*3, es
}

// TestPackingMatchesRowMajorReference drives the column-major solver and
// the row-major reference through the same column-generation sequences
// and requires every output bit to agree after every Solve: status,
// objective, duals, primals, pivot count and all of B⁻¹. The reference
// may hold −0 where Gauss-Jordan scaled a zero by a negative pivot; the
// solver stores +0 there (its pivot relies on it), so those entries are
// compared as +0. No −0 is ever observable in the outputs.
func TestPackingMatchesRowMajorReference(t *testing.T) {
	cases := []refCase{
		{seed: 1, m: 6, n: 10, add: 3, rounds: 8},
		{seed: 2, m: 20, n: 30, add: 10, rounds: 12, zeroRHS: 0.2},
		{seed: 3, m: 40, n: 60, add: 20, rounds: 10},
		{seed: 4, m: 60, n: 200, add: 60, rounds: 40, wantRefactor: true},
		{seed: 5, m: 30, n: 40, add: 40, rounds: 30, zeroRHS: 0.9, bland: true},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		b := make([]float64, c.m)
		for i := range b {
			if rng.Float64() >= c.zeroRHS {
				b[i] = 1 + float64(rng.Intn(9))
			}
		}
		got, err := NewPacking(b)
		if err != nil {
			t.Fatal(err)
		}
		want := newRefPacking(b)
		// Columns after the first n are priced like column generation
		// does: each one's objective beats its cost under the duals.
		addCols := func(k int, y []float64) {
			for ; k > 0; k-- {
				obj, es := randomColumn(rng, c.m)
				if y != nil {
					obj = 0.05 + rng.Float64()*0.5 - ReducedCost(0, es, y)
				}
				if _, err := got.AddColumn(obj, es); err != nil {
					t.Fatal(err)
				}
				want.AddColumn(obj, es)
			}
		}
		addCols(c.n, nil)
		for round := 0; round < c.rounds; round++ {
			st, err := got.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if wst := want.Solve(); st != wst {
				t.Fatalf("seed %d round %d: status %v, reference %v", c.seed, round, st, wst)
			}
			compareWithReference(t, c.seed, round, got, want)
			addCols(c.add, got.Duals())
		}
		t.Logf("seed %d: %d pivots, %d under Bland's rule", c.seed, got.Pivots(), want.bland)
		if c.wantRefactor && got.Pivots() < 2000 {
			t.Errorf("seed %d: %d pivots, want ≥ 2000 so B⁻¹ is refactorised", c.seed, got.Pivots())
		}
		if c.bland && want.bland == 0 {
			t.Errorf("seed %d: no pivot under Bland's rule", c.seed)
		}
	}
}

func compareWithReference(t *testing.T, seed int64, round int, got *PackingSolver, want *refPacking) {
	t.Helper()
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("seed %d round %d: %s has %d entries, reference %d", seed, round, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("seed %d round %d: %s[%d] = %v, reference %v", seed, round, what, i, a[i], b[i])
			}
		}
	}
	same("objective", []float64{got.Objective()}, []float64{want.Objective()})
	same("duals", got.Duals(), want.Duals())
	same("primals", got.Primals(), want.Primals())
	if got.Pivots() != want.pivots {
		t.Fatalf("seed %d round %d: %d pivots, reference %d", seed, round, got.Pivots(), want.pivots)
	}
	for i, row := range want.binv {
		for j, v := range row {
			g := got.binv[j][i]
			if math.Signbit(g) && g == 0 {
				t.Fatalf("seed %d round %d: B⁻¹(%d,%d) is −0", seed, round, i, j)
			}
			if v == 0 {
				v = 0
			}
			if math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("seed %d round %d: B⁻¹(%d,%d) = %v, reference %v", seed, round, i, j, g, v)
			}
		}
	}
}
