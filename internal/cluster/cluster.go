// Package cluster consumes the all-vs-all comparison results the way
// the paper's introduction motivates: ranked retrieval ("retrieve a
// ranked list of proteins, where structurally similar proteins are
// ranked higher") and fold-family detection from the TM-score matrix.
// It provides single-linkage clustering at a similarity threshold (the
// conventional TM > 0.5 "same fold" rule) and average-linkage
// agglomerative clustering with a cuttable merge history.
package cluster

import (
	"fmt"
	"sort"

	"rckalign/internal/core"
)

// Matrix is a symmetric similarity matrix over named structures.
type Matrix struct {
	names []string
	vals  []float64 // n x n row-major, diagonal = 1
}

// NewMatrix creates an n x n matrix (diagonal 1, off-diagonal 0) over
// the given names.
func NewMatrix(names []string) *Matrix {
	n := len(names)
	m := &Matrix{names: append([]string(nil), names...), vals: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		m.vals[i*n+i] = 1
	}
	return m
}

// FromPairResults builds the TM-score similarity matrix of an
// all-vs-all run (mean of the two normalisations, symmetric).
func FromPairResults(pr *core.PairResults) *Matrix {
	names := make([]string, pr.Dataset.Len())
	for i, s := range pr.Dataset.Structures {
		names[i] = s.ID
	}
	m := NewMatrix(names)
	for k, p := range pr.Pairs {
		m.Set(p.I, p.J, pr.Results[k].TM())
	}
	return m
}

// Len returns the number of structures.
func (m *Matrix) Len() int { return len(m.names) }

// Name returns the name of structure i.
func (m *Matrix) Name(i int) string { return m.names[i] }

// At returns the similarity of structures i and j.
func (m *Matrix) At(i, j int) float64 { return m.vals[i*len(m.names)+j] }

// Set stores a symmetric similarity.
func (m *Matrix) Set(i, j int, v float64) {
	n := len(m.names)
	m.vals[i*n+j] = v
	m.vals[j*n+i] = v
}

// Hit is one entry of a ranked retrieval list.
type Hit struct {
	Index int
	Name  string
	Score float64
}

// Rank returns every other structure ordered by descending similarity
// to the query — the one-vs-all retrieval task from the paper's
// introduction.
func (m *Matrix) Rank(query int) []Hit {
	hits := make([]Hit, 0, m.Len()-1)
	for i := 0; i < m.Len(); i++ {
		if i == query {
			continue
		}
		hits = append(hits, Hit{Index: i, Name: m.names[i], Score: m.At(query, i)})
	}
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score })
	return hits
}

// SingleLinkage returns the connected components of the "similarity >=
// threshold" graph (union-find), each sorted by index; components are
// ordered by size descending, then by first member.
func (m *Matrix) SingleLinkage(threshold float64) [][]int {
	n := m.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.At(i, j) >= threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// Merge records one agglomerative step: clusters A and B (identified by
// their member lists at merge time) joined at the given similarity.
type Merge struct {
	A, B       []int
	Similarity float64
}

// AverageLinkage runs full agglomerative clustering with average
// linkage (UPGMA) and returns the merge history from most to least
// similar.
func (m *Matrix) AverageLinkage() []Merge {
	n := m.Len()
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	var merges []Merge
	avg := func(a, b []int) float64 {
		s := 0.0
		for _, i := range a {
			for _, j := range b {
				s += m.At(i, j)
			}
		}
		return s / float64(len(a)*len(b))
	}
	for len(clusters) > 1 {
		bi, bj, bs := 0, 1, -1.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := avg(clusters[i], clusters[j]); s > bs {
					bi, bj, bs = i, j, s
				}
			}
		}
		a, b := clusters[bi], clusters[bj]
		merges = append(merges, Merge{A: append([]int(nil), a...), B: append([]int(nil), b...), Similarity: bs})
		joined := append(append([]int(nil), a...), b...)
		sort.Ints(joined)
		clusters[bi] = joined
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	return merges
}

// CutAverageLinkage returns the clusters obtained by stopping the
// average-linkage agglomeration at the given similarity threshold
// (merges below it are not applied).
func (m *Matrix) CutAverageLinkage(threshold float64) [][]int {
	n := m.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, mg := range m.AverageLinkage() {
		if mg.Similarity < threshold {
			break
		}
		parent[find(mg.A[0])] = find(mg.B[0])
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// Purity scores a clustering against ground-truth labels: the fraction
// of structures whose cluster's majority label matches their own.
func Purity(clusters [][]int, labels []string) float64 {
	total := 0
	correct := 0
	for _, c := range clusters {
		counts := map[string]int{}
		for _, i := range c {
			counts[labels[i]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		correct += best
		total += len(c)
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// TopKAccuracy measures retrieval quality: for each query, the fraction
// of its top-k hits sharing the query's label, averaged over queries
// with at least one same-label partner.
func (m *Matrix) TopKAccuracy(labels []string, k int) float64 {
	if k < 1 {
		k = 1
	}
	sum, queries := 0.0, 0
	for q := 0; q < m.Len(); q++ {
		partners := 0
		for i, l := range labels {
			if i != q && l == labels[q] {
				partners++
			}
		}
		if partners == 0 {
			continue
		}
		kk := k
		if kk > partners {
			kk = partners
		}
		hits := m.Rank(q)
		good := 0
		for _, h := range hits[:kk] {
			if labels[h.Index] == labels[q] {
				good++
			}
		}
		sum += float64(good) / float64(kk)
		queries++
	}
	if queries == 0 {
		return 0
	}
	return sum / float64(queries)
}

// FormatClusters renders clusters as "size: name name ..." lines.
func FormatClusters(m *Matrix, clusters [][]int) string {
	out := ""
	for _, c := range clusters {
		out += fmt.Sprintf("%3d:", len(c))
		for _, i := range c {
			out += " " + m.Name(i)
		}
		out += "\n"
	}
	return out
}
