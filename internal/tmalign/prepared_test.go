package tmalign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"rckalign/internal/pdb"
	"rckalign/internal/synth"
)

// checksum hashes every value a Prepared holds.
func checksum(p *Prepared) uint64 {
	h := fnv.New64a()
	put := func(f float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(f)) }
	for _, v := range p.CA {
		put(v[0])
		put(v[1])
		put(v[2])
	}
	for _, col := range [][]float64{p.soa.X, p.soa.Y, p.soa.Z} {
		for _, f := range col {
			put(f)
		}
	}
	for _, f := range p.Features.Comp {
		put(f)
	}
	for _, s := range p.Features.Sec {
		h.Write([]byte{byte(s)})
	}
	fmt.Fprint(h, p.ID, p.Features.Length, p.Features.Seq, p.finite, p.err)
	return h.Sum64()
}

// TestPreparedUnchangedByAllPairs: a CK34 all-vs-all on two goroutines
// over one set of Prepared values leaves every one of them as it was,
// bit for bit — no kernel path writes into a chain the other comparisons
// share. -short strides the 561 pairs by 7.
func TestPreparedUnchangedByAllPairs(t *testing.T) {
	ck := synth.CK34()
	prep := make([]*Prepared, ck.Len())
	before := make([]uint64, ck.Len())
	for i, s := range ck.Structures {
		prep[i] = Prepare(s)
		before[i] = checksum(prep[i])
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	var pairs [][2]int
	for i := range prep {
		for j := i + 1; j < len(prep); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g * stride; k < len(pairs); k += 2 * stride {
				ComparePrepared(prep[pairs[k][0]], prep[pairs[k][1]], DefaultOptions())
			}
		}()
	}
	wg.Wait()
	for i, p := range prep {
		if got := checksum(p); got != before[i] {
			t.Errorf("%s: checksum %x after the pass, %x before", p.ID, got, before[i])
		}
	}
}

// TestSharedPreparedConcurrent: two goroutines compare against one
// Prepared at once, as the moving chain and as the fixed one, and get
// what the one-shot Compare returns. Run it under -race.
func TestSharedPreparedConcurrent(t *testing.T) {
	ck := synth.CK34()
	shared := Prepare(ck.Structures[0])
	others := []int{1, 16}
	got := make([][2]*Result, len(others))
	var wg sync.WaitGroup
	for g, o := range others {
		other := Prepare(ck.Structures[o])
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = [2]*Result{ComparePrepared(shared, other, DefaultOptions()), ComparePrepared(other, shared, DefaultOptions())}
		}()
	}
	wg.Wait()
	for g, o := range others {
		want := [2]*Result{Compare(ck.Structures[0], ck.Structures[o], DefaultOptions()), Compare(ck.Structures[o], ck.Structures[0], DefaultOptions())}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("against %s: concurrent %v / %v, one-shot %v / %v", ck.Structures[o].ID, got[g][0], got[g][1], want[0], want[1])
		}
	}
}

// TestTryCompareValidatesOnce: a degenerate structure's error is the one
// ValidateStructure has always given, on either side; and TryCompare
// hands back the verdict Prepare kept, without allocating — validating
// again would copy the chain — and trusts a clean verdict even on a
// chain it would have rejected.
func TestTryCompareValidatesOnce(t *testing.T) {
	ok := synthStructure("ok", 20, 1)
	good := Prepare(ok)
	short := synthStructure("short", 2, 2)
	nan := synthStructure("nan", 10, 3)
	nan.Residues[4].CA[1] = math.NaN()
	huge := synthStructure("huge", 10, 4)
	huge.Residues[7].CA[0] = 1e200
	for _, tc := range []struct {
		st   *pdb.Structure
		want string
	}{
		{short, `tmalign: degenerate structure: "short" has 2 CA residues, need >= 3`},
		{nan, `tmalign: degenerate structure: "nan" has CA coordinate NaN at residue 4, outside ±9999.999`},
		{huge, `tmalign: degenerate structure: "huge" has CA coordinate 1e+200 at residue 7, outside ±9999.999`},
	} {
		bad := Prepare(tc.st)
		_, e1 := TryCompare(good, bad, DefaultOptions())
		_, e2 := TryCompare(bad, good, DefaultOptions())
		for _, err := range []error{ValidateStructure(tc.st), bad.err, e1, e2} {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: error %v, want %q", tc.st.ID, err, tc.want)
			}
		}
		if e2 != bad.err {
			t.Errorf("%s: TryCompare returned %v, not the verdict Prepare kept", tc.st.ID, e2)
		}
		if n := testing.AllocsPerRun(10, func() { TryCompare(good, bad, DefaultOptions()) }); n != 0 {
			t.Errorf("%s: rejecting a prepared structure allocates %v objects, want 0", tc.st.ID, n)
		}
	}
	cleared := Prepare(short)
	cleared.err = nil
	if r, err := TryCompare(good, cleared, DefaultOptions()); err != nil || r.Len2 != 2 || r.AlignedLen != 0 {
		t.Errorf("a prepared structure with a clean verdict was validated again: %v, %v", r, err)
	}
}
