package core

// This file freezes the PRE-OPTIMIZATION Figure 5 miner — the seed
// implementation as it stood before the zero-allocation hot-path rewrite:
// per-node maps for chain membership and candidate dedup, reflective
// sort.Slice/sort.Ints calls, per-level chain slice copies, and duplicate
// suppression keyed by the materialized Bicluster.Key() string. It exists
// solely as the differential-testing oracle: the optimized miner must
// reproduce its clusters, enumeration order, and Stats bit for bit (see
// differential_test.go). Do NOT optimize this copy.

import (
	"math"
	"sort"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

type refMiner struct {
	m      *matrix.Matrix
	p      Params
	models *rwave.Set
	bud    *budget
	seen   map[string]bool
	out    []*Bicluster
	stats  Stats
	stop   bool
}

// referenceMine is the frozen equivalent of Mine.
func referenceMine(m *matrix.Matrix, p Params) (*Result, error) {
	models, err := prepare(m, p, nil)
	if err != nil {
		return nil, err
	}
	mn := &refMiner{m: m, p: p, models: models, bud: newBudget(p, nil), seen: make(map[string]bool)}
	for c := 0; c < m.Cols() && !mn.stop; c++ {
		mn.runFrom(c)
	}
	return &Result{Clusters: mn.out, Stats: mn.stats}, nil
}

func (mn *refMiner) runFrom(c int) {
	nGenes := mn.m.Rows()
	members := make([]member, 0, nGenes)
	for g := 0; g < nGenes; g++ {
		mod := mn.models.Model(g)
		if mn.p.DisableChainLengthPruning || mod.MaxUpChainFrom(c) >= mn.p.MinC {
			members = append(members, member{g, true})
		} else {
			mn.stats.MembersDroppedByLength++
		}
		if mn.p.DisableChainLengthPruning || mod.MaxDownChainFrom(c) >= mn.p.MinC {
			members = append(members, member{g, false})
		} else {
			mn.stats.MembersDroppedByLength++
		}
	}
	mn.mineC2([]int{c}, members)
}

func (mn *refMiner) mineC2(chain []int, members []member) {
	if mn.stop || mn.bud.stopped() {
		mn.stop = true
		return
	}
	mn.stats.Nodes++
	if !mn.bud.chargeNode() {
		mn.stats.Truncated = true
		mn.stop = true
		return
	}

	if refDistinctGenes(members) < mn.p.MinG {
		mn.stats.PrunedMinG++
		return
	}
	pCount := 0
	for _, mb := range members {
		if mb.up {
			pCount++
		}
	}
	if !mn.p.DisableMajorityPruning && 2*pCount < mn.p.MinG {
		mn.stats.PrunedMajority++
		return
	}

	if len(chain) >= mn.p.MinC && mn.isRepresentative(chain, members, pCount) {
		b := mn.toBicluster(chain, members)
		key := b.Key()
		if mn.seen[key] {
			mn.stats.Duplicates++
			if !mn.p.DisableDedupPruning {
				return
			}
		} else {
			mn.seen[key] = true
			mn.stats.Clusters++
			mn.out = append(mn.out, b)
			if !mn.bud.chargeCluster() {
				mn.stats.Truncated = true
				mn.stop = true
				return
			}
		}
	}

	mn.extend(chain, members, pCount)
}

func (mn *refMiner) extend(chain []int, members []member, pCount int) {
	last := chain[len(chain)-1]
	inChain := make(map[int]bool, len(chain))
	for _, c := range chain {
		inChain[c] = true
	}

	var candidates []int
	if mn.p.NaiveCandidates {
		for c := 0; c < mn.m.Cols(); c++ {
			if !inChain[c] {
				candidates = append(candidates, c)
			}
		}
	} else {
		seen := make(map[int]bool)
		for _, mb := range members {
			if !mb.up {
				continue
			}
			mod := mn.models.Model(mb.gene)
			for r := mod.SuccessorStartRank(last); r < mod.Conditions(); r++ {
				c := mod.Order(r)
				if !seen[c] && !inChain[c] {
					seen[c] = true
					candidates = append(candidates, c)
				}
			}
		}
		sort.Ints(candidates)
	}

	for _, ci := range candidates {
		if mn.stop || mn.bud.stopped() {
			mn.stop = true
			return
		}
		mn.stats.CandidatesExamined++
		ext := mn.matchCandidate(chain, members, last, ci)
		if len(ext) == 0 {
			continue
		}
		windows := refMaximalWindows(ext, mn.p.Epsilon, mn.p.MinG)
		if len(windows) == 0 {
			mn.stats.PrunedCoherence++
			continue
		}
		newChain := append(chain[:len(chain):len(chain)], ci)
		for _, w := range windows {
			nm := make([]member, 0, w[1]-w[0]+1)
			for k := w[0]; k <= w[1]; k++ {
				nm = append(nm, ext[k].member)
			}
			refSortMembers(nm)
			mn.mineC2(newChain, nm)
		}
	}
}

func (mn *refMiner) matchCandidate(chain []int, members []member, last, ci int) []extMember {
	chainLen := len(chain)
	var ext []extMember
	for _, mb := range members {
		mod := mn.models.Model(mb.gene)
		if mb.up {
			if !mod.IsSuccessor(last, ci) {
				continue
			}
			if !mn.p.DisableChainLengthPruning && chainLen+mod.MaxUpChainFrom(ci) < mn.p.MinC {
				mn.stats.MembersDroppedByLength++
				continue
			}
		} else {
			if !mod.IsPredecessor(last, ci) {
				continue
			}
			if !mn.p.DisableChainLengthPruning && chainLen+mod.MaxDownChainFrom(ci) < mn.p.MinC {
				mn.stats.MembersDroppedByLength++
				continue
			}
		}
		h := 1.0
		if chainLen >= 2 {
			base := mod.ValueOf(chain[1]) - mod.ValueOf(chain[0])
			h = (mod.ValueOf(ci) - mod.ValueOf(last)) / base
			if math.IsInf(h, 0) || math.IsNaN(h) {
				mn.stats.NonFiniteH++
				continue
			}
		}
		ext = append(ext, extMember{member{mb.gene, mb.up}, h})
	}
	sort.Slice(ext, func(a, b int) bool {
		if ext[a].h != ext[b].h {
			return ext[a].h < ext[b].h
		}
		if ext[a].gene != ext[b].gene {
			return ext[a].gene < ext[b].gene
		}
		return ext[a].up && !ext[b].up
	})
	return ext
}

func (mn *refMiner) isRepresentative(chain []int, members []member, pCount int) bool {
	nCount := len(members) - pCount
	if pCount != nCount {
		return pCount > nCount
	}
	return chain[0] > chain[len(chain)-1]
}

func (mn *refMiner) toBicluster(chain []int, members []member) *Bicluster {
	b := &Bicluster{Chain: append([]int(nil), chain...)}
	for _, mb := range members {
		if mb.up {
			b.PMembers = append(b.PMembers, mb.gene)
		} else {
			b.NMembers = append(b.NMembers, mb.gene)
		}
	}
	sort.Ints(b.PMembers)
	sort.Ints(b.NMembers)
	return b
}

func refMaximalWindows(ext []extMember, eps float64, minLen int) [][2]int {
	var out [][2]int
	r := 0
	prevR := -1
	for l := 0; l < len(ext); l++ {
		if r < l {
			r = l
		}
		for r+1 < len(ext) && ext[r+1].h-ext[l].h <= eps {
			r++
		}
		if r-l+1 >= minLen && r > prevR {
			out = append(out, [2]int{l, r})
			prevR = r
		}
	}
	return out
}

func refSortMembers(ms []member) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].gene != ms[b].gene {
			return ms[a].gene < ms[b].gene
		}
		return ms[a].up && !ms[b].up
	})
}

func refDistinctGenes(ms []member) int {
	n := 0
	prev := -1
	for _, mb := range ms {
		if mb.gene != prev {
			n++
			prev = mb.gene
		}
	}
	return n
}
