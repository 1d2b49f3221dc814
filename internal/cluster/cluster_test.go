package cluster

import (
	"strings"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// toy builds a matrix with two obvious groups {0,1,2} and {3,4}.
func toy() *Matrix {
	m := NewMatrix([]string{"a1", "a2", "a3", "b1", "b2"})
	hi := func(i, j int) { m.Set(i, j, 0.8) }
	lo := func(i, j int) { m.Set(i, j, 0.2) }
	hi(0, 1)
	hi(0, 2)
	hi(1, 2)
	hi(3, 4)
	lo(0, 3)
	lo(0, 4)
	lo(1, 3)
	lo(1, 4)
	lo(2, 3)
	lo(2, 4)
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := toy()
	if m.Len() != 5 || m.Name(3) != "b1" {
		t.Fatal("matrix metadata")
	}
	if m.At(0, 0) != 1 {
		t.Error("diagonal must be 1")
	}
	if m.At(0, 1) != m.At(1, 0) {
		t.Error("matrix not symmetric")
	}
}

func TestRank(t *testing.T) {
	m := toy()
	hits := m.Rank(0)
	if len(hits) != 4 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Score < hits[1].Score || hits[1].Score < hits[2].Score {
		t.Error("hits not sorted")
	}
	// a2, a3 before b1, b2.
	if !strings.HasPrefix(hits[0].Name, "a") || !strings.HasPrefix(hits[1].Name, "a") {
		t.Errorf("wrong top hits: %v", hits)
	}
}

func TestSingleLinkage(t *testing.T) {
	m := toy()
	cl := m.SingleLinkage(0.5)
	if len(cl) != 2 {
		t.Fatalf("clusters = %v", cl)
	}
	if len(cl[0]) != 3 || cl[0][0] != 0 || cl[0][2] != 2 {
		t.Errorf("first cluster = %v", cl[0])
	}
	if len(cl[1]) != 2 || cl[1][0] != 3 {
		t.Errorf("second cluster = %v", cl[1])
	}
	// Threshold above everything: singletons.
	if got := m.SingleLinkage(0.95); len(got) != 5 {
		t.Errorf("high threshold gave %d clusters", len(got))
	}
	// Threshold below everything: one cluster.
	if got := m.SingleLinkage(0.1); len(got) != 1 {
		t.Errorf("low threshold gave %d clusters", len(got))
	}
}

func TestAverageLinkageHistory(t *testing.T) {
	m := toy()
	merges := m.AverageLinkage()
	if len(merges) != 4 {
		t.Fatalf("merges = %d, want n-1", len(merges))
	}
	for i := 1; i < len(merges); i++ {
		if merges[i].Similarity > merges[i-1].Similarity+1e-9 {
			t.Errorf("merge similarities not descending: %v then %v",
				merges[i-1].Similarity, merges[i].Similarity)
		}
	}
	// First merges join within-group pairs at 0.8.
	if merges[0].Similarity != 0.8 {
		t.Errorf("first merge at %v", merges[0].Similarity)
	}
}

func TestCutAverageLinkage(t *testing.T) {
	m := toy()
	cl := m.CutAverageLinkage(0.5)
	if len(cl) != 2 || len(cl[0]) != 3 || len(cl[1]) != 2 {
		t.Errorf("cut clusters = %v", cl)
	}
}

func TestPurity(t *testing.T) {
	labels := []string{"a", "a", "a", "b", "b"}
	if p := Purity([][]int{{0, 1, 2}, {3, 4}}, labels); p != 1 {
		t.Errorf("perfect purity = %v", p)
	}
	if p := Purity([][]int{{0, 1, 3}, {2, 4}}, labels); p != 0.6 {
		t.Errorf("mixed purity = %v, want 0.6", p)
	}
	if Purity(nil, labels) != 0 {
		t.Error("empty purity")
	}
}

func TestTopKAccuracy(t *testing.T) {
	m := toy()
	labels := []string{"a", "a", "a", "b", "b"}
	if acc := m.TopKAccuracy(labels, 2); acc != 1 {
		t.Errorf("toy top-2 accuracy = %v, want 1", acc)
	}
	// All-distinct labels: no queries have partners.
	if acc := m.TopKAccuracy([]string{"p", "q", "r", "s", "t"}, 2); acc != 0 {
		t.Errorf("no-partner accuracy = %v", acc)
	}
}

func TestEndToEndOnSyntheticFamilies(t *testing.T) {
	ds := synth.Small(8, 404) // fa* and fb* families
	pr := core.ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))
	m := FromPairResults(pr)

	labels := make([]string, ds.Len())
	for i, s := range ds.Structures {
		labels[i] = s.ID[:2] // "fa" or "fb"
	}
	cl := m.SingleLinkage(0.5)
	if len(cl) != 2 {
		t.Fatalf("expected the two synthetic families, got %d clusters:\n%s",
			len(cl), FormatClusters(m, cl))
	}
	if p := Purity(cl, labels); p != 1 {
		t.Errorf("family purity = %v", p)
	}
	if acc := m.TopKAccuracy(labels, 3); acc < 0.99 {
		t.Errorf("retrieval accuracy = %v", acc)
	}
	out := FormatClusters(m, cl)
	if !strings.Contains(out, "fa01") || !strings.Contains(out, "fb01") {
		t.Errorf("FormatClusters output:\n%s", out)
	}
}

func TestDendrogram(t *testing.T) {
	m := toy()
	out := m.Dendrogram()
	// Every structure name appears exactly once.
	for i := 0; i < m.Len(); i++ {
		if got := strings.Count(out, m.Name(i)); got != 1 {
			t.Errorf("name %s appears %d times:\n%s", m.Name(i), got, out)
		}
	}
	// The tight within-group join (0.8) and the loose cross-group join
	// must both be visible.
	if !strings.Contains(out, "[0.800]") {
		t.Errorf("missing 0.8 join:\n%s", out)
	}
	// n-1 = 4 internal joins.
	if got := strings.Count(out, "["); got != 4 {
		t.Errorf("internal nodes = %d, want 4:\n%s", got, out)
	}
	// Single structure: trivial output.
	single := NewMatrix([]string{"only"})
	if single.Dendrogram() != "only\n" {
		t.Errorf("single dendrogram = %q", single.Dendrogram())
	}
}
