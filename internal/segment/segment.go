// Package segment enumerates candidate physical segments — the multi-hop
// fibre routes over which entanglement segments can be created with
// all-optical switching — and assembles them into the segment graph used by
// the LP, the ESC reservation pass and the ECE auxiliary graph.
//
// Following §III-D of the paper, candidates are the contiguous sub-segments
// of K Yen shortest physical paths per SD pair, pruned by a hop cap and a
// minimum creation probability, keeping the best few physical realizations
// per endpoint pair.
package segment

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"see/internal/graph"
	"see/internal/topo"
)

// Candidate is one physical realization of an entanglement segment: the
// concrete fibre route between the segment's endpoints.
type Candidate struct {
	// Path is the physical node sequence; Path[0] and Path[len-1] are the
	// segment endpoints that will store the Bell-pair photons.
	Path graph.Path
	// EdgeIDs are the physical link IDs along Path; creating the segment
	// reserves one channel on each for the whole slot.
	EdgeIDs []int
	// Prob is the one-slot success probability of creating the segment
	// over this route (p^k_uv in the paper).
	Prob float64
}

// U returns the smaller endpoint of the candidate.
func (c *Candidate) U() int { return min(c.Path[0], c.Path[len(c.Path)-1]) }

// V returns the larger endpoint of the candidate.
func (c *Candidate) V() int { return max(c.Path[0], c.Path[len(c.Path)-1]) }

// Hops returns the number of physical links the candidate spans.
func (c *Candidate) Hops() int { return c.Path.Hops() }

// minAttemptRate is the attempt rate below which a realization is treated
// as unable to support flow.
const minAttemptRate = 1e-12

// AttemptRate returns p·√(q_u q_v): the candidate's creation probability
// scaled by the geometric mean of its endpoints' swap success. ok is false
// when the rate is too small to support flow.
func (c *Candidate) AttemptRate(net *topo.Network) (rate float64, ok bool) {
	qu := net.SwapProb[c.Path[0]]
	qv := net.SwapProb[c.Path[len(c.Path)-1]]
	rate = c.Prob * math.Sqrt(qu*qv)
	return rate, rate > minAttemptRate
}

// AttemptCost is the expected number of attempts a unit of flow costs on
// the candidate, 1/(p·√(q_u q_v)): the metric the LP prices columns with
// and the non-LP planners route by. It is +Inf when the realization cannot
// support flow.
func (c *Candidate) AttemptCost(net *topo.Network) float64 {
	rate, ok := c.AttemptRate(net)
	if !ok {
		return math.Inf(1)
	}
	return 1 / rate
}

// PairKey identifies an unordered segment endpoint pair (U < V).
type PairKey struct {
	U, V int
}

// MakePairKey normalizes an endpoint pair.
func MakePairKey(a, b int) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{U: a, V: b}
}

// Other returns the endpoint opposite to node x, and false if x is not an
// endpoint.
func (k PairKey) Other(x int) (int, bool) {
	switch x {
	case k.U:
		return k.V, true
	case k.V:
		return k.U, true
	default:
		return -1, false
	}
}

// Options tunes candidate enumeration.
type Options struct {
	// KPaths is the number of Yen shortest physical paths per SD pair
	// (paper §III-D; default 5).
	KPaths int
	// MaxSegmentHops caps the physical hop count of a segment. 1
	// reproduces the entanglement-link-only setting (REPS); large values
	// approach pure all-optical switching. Default 4.
	MaxSegmentHops int
	// MinProb prunes candidates whose creation probability is below the
	// threshold (paper: segments "with a low probability ... will be
	// removed"). Default 0.05.
	MinProb float64
	// MaxCandidatesPerPair keeps only the top realizations per endpoint
	// pair, by probability. Default 3.
	MaxCandidatesPerPair int
	// FullPathOnly enumerates only whole SD paths as segments (the E2E
	// baseline); MaxSegmentHops is ignored and MinProb is not applied so
	// that E2E still attempts low-probability long segments, as the
	// paper's E2E curve does.
	FullPathOnly bool
}

// DefaultOptions returns the defaults described above.
func DefaultOptions() Options {
	return Options{
		KPaths:               5,
		MaxSegmentHops:       4,
		MinProb:              0.05,
		MaxCandidatesPerPair: 3,
	}
}

func (o Options) withDefaults() Options {
	if o.KPaths <= 0 {
		o.KPaths = 5
	}
	if o.MaxSegmentHops <= 0 {
		o.MaxSegmentHops = 4
	}
	if o.MaxCandidatesPerPair <= 0 {
		o.MaxCandidatesPerPair = 3
	}
	if o.MinProb < 0 {
		o.MinProb = 0
	}
	return o
}

// Set is the candidate catalogue for one (network, SD pairs) instance.
type Set struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	// ByPair lists candidates per endpoint pair, sorted by decreasing
	// probability.
	ByPair map[PairKey][]*Candidate
	// SDPaths holds, per SD pair, the physical candidate paths it was
	// derived from (useful for diagnostics and the E2E baseline).
	SDPaths [][]graph.Path

	// SegGraph has one undirected edge per endpoint pair with at least one
	// candidate; edge IDs index EdgePairs.
	SegGraph  *graph.Graph
	EdgePairs []PairKey
	EdgeOf    map[PairKey]int

	opts Options
}

// Build enumerates candidates for every SD pair.
func Build(net *topo.Network, pairs []topo.SDPair, opts Options) (*Set, error) {
	if net == nil {
		return nil, errors.New("segment: nil network")
	}
	opts = opts.withDefaults()
	s := &Set{
		Net:     net,
		Pairs:   append([]topo.SDPair(nil), pairs...),
		ByPair:  make(map[PairKey][]*Candidate),
		SDPaths: make([][]graph.Path, len(pairs)),
		EdgeOf:  make(map[PairKey]int),
		opts:    opts,
	}
	seen := make(map[string]struct{})
	for i, sd := range pairs {
		if sd.S == sd.D || sd.S < 0 || sd.D < 0 || sd.S >= net.NumNodes() || sd.D >= net.NumNodes() {
			return nil, fmt.Errorf("segment: invalid SD pair %d: %+v", i, sd)
		}
		paths := graph.YenKShortest(net.G, sd.S, sd.D, opts.KPaths, graph.DijkstraOptions{})
		s.SDPaths[i] = paths
		for _, p := range paths {
			if opts.FullPathOnly {
				s.addCandidate(p, seen, true)
				continue
			}
			for a := 0; a < len(p); a++ {
				for b := a + 1; b < len(p) && b-a <= opts.MaxSegmentHops; b++ {
					s.addCandidate(p[a:b+1], seen, false)
				}
			}
		}
	}
	s.trimAndSort()
	s.buildSegGraph()
	return s, nil
}

func (s *Set) addCandidate(p graph.Path, seen map[string]struct{}, skipMinProb bool) {
	if len(p) < 2 {
		return
	}
	key := topo.Key(p)
	if _, dup := seen[key]; dup {
		return
	}
	seen[key] = struct{}{}
	prob := s.Net.SegmentSuccessProb(p)
	if prob <= 0 {
		return
	}
	if !skipMinProb && prob < s.opts.MinProb {
		return
	}
	ids, err := s.Net.PathEdgeIDs(p)
	if err != nil {
		return
	}
	c := &Candidate{
		Path:    append(graph.Path(nil), p...),
		EdgeIDs: ids,
		Prob:    prob,
	}
	pk := MakePairKey(c.Path[0], c.Path[len(c.Path)-1])
	s.ByPair[pk] = append(s.ByPair[pk], c)
}

func (s *Set) trimAndSort() {
	for pk, list := range s.ByPair {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].Prob != list[j].Prob {
				return list[i].Prob > list[j].Prob
			}
			return list[i].Hops() < list[j].Hops()
		})
		if len(list) > s.opts.MaxCandidatesPerPair {
			list = list[:s.opts.MaxCandidatesPerPair]
		}
		s.ByPair[pk] = list
	}
}

func (s *Set) buildSegGraph() {
	s.SegGraph = graph.New(s.Net.NumNodes())
	keys := make([]PairKey, 0, len(s.ByPair))
	for pk := range s.ByPair {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	s.EdgePairs = make([]PairKey, 0, len(keys))
	for _, pk := range keys {
		id := s.SegGraph.AddEdge(pk.U, pk.V, 1)
		s.EdgePairs = append(s.EdgePairs, pk)
		s.EdgeOf[pk] = id
	}
}

// For returns the candidates for an endpoint pair, best first.
func (s *Set) For(a, b int) []*Candidate {
	return s.ByPair[MakePairKey(a, b)]
}

// CandidateFor returns the candidate with exactly the given physical route
// (same orientation), or nil. Checkpoint restore uses it to re-link
// deserialized segments to the catalogue's candidate objects, so pointer
// identity — which structural comparisons of slot results depend on — is
// re-established against the deterministically rebuilt catalogue.
func (s *Set) CandidateFor(a, b int, path []int) *Candidate {
	for _, c := range s.For(a, b) {
		if len(c.Path) != len(path) {
			continue
		}
		match := true
		for i, v := range c.Path {
			if v != path[i] {
				match = false
				break
			}
		}
		if match {
			return c
		}
	}
	return nil
}

// Best returns the highest-probability candidate for an endpoint pair, or
// nil.
func (s *Set) Best(a, b int) *Candidate {
	list := s.For(a, b)
	if len(list) == 0 {
		return nil
	}
	return list[0]
}

// NumPairsWithCandidates returns how many endpoint pairs have candidates.
func (s *Set) NumPairsWithCandidates() int { return len(s.ByPair) }

// NumCandidates returns the total candidate count.
func (s *Set) NumCandidates() int {
	n := 0
	for _, l := range s.ByPair {
		n += len(l)
	}
	return n
}

// UsedLinks returns the sorted set of physical link IDs referenced by any
// candidate (the links that need LP capacity rows).
func (s *Set) UsedLinks() []int {
	used := make(map[int]struct{})
	for _, list := range s.ByPair {
		for _, c := range list {
			for _, id := range c.EdgeIDs {
				used[id] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(used))
	for id := range used {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// UsedEndpoints returns the sorted set of nodes that appear as a candidate
// endpoint (the nodes that need LP memory rows).
func (s *Set) UsedEndpoints() []int {
	used := make(map[int]struct{})
	for pk := range s.ByPair {
		used[pk.U] = struct{}{}
		used[pk.V] = struct{}{}
	}
	out := make([]int, 0, len(used))
	for u := range used {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}
