// Command tmalign compares two protein structures with the TM-align
// algorithm and prints a TM-align-style report, three-line alignment
// included: the serial baseline of the paper.
//
// Usage:
//
//	tmalign [-fast] [-matrix] chain1.pdb chain2.pdb
//	tmalign -demo                 # compare two built-in synthetic chains
//
// A chain with fewer than three CA atoms or a CA coordinate that is not
// finite or lies outside any PDB column (tmalign.ValidateStructure, the
// check rckserve applies to uploads) exits 1 with a "degenerate
// structure" error and prints no score.
package main

import (
	"flag"
	"fmt"
	"os"

	"rckalign/internal/pdb"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func main() {
	fast := flag.Bool("fast", false, "use the fast search profile (coarser, ~5x cheaper)")
	matrix := flag.Bool("matrix", false, "print the rotation matrix")
	demo := flag.Bool("demo", false, "compare two built-in synthetic structures instead of files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tmalign [-fast] [-matrix] chain1.pdb chain2.pdb\n       tmalign -demo\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var s1, s2 *pdb.Structure
	var err error
	if *demo {
		ds := synth.CK34()
		s1, s2 = ds.Structures[0], ds.Structures[1]
	} else {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		if s1, err = pdb.ParseFile(flag.Arg(0)); err != nil {
			fatal(err)
		}
		if s2, err = pdb.ParseFile(flag.Arg(1)); err != nil {
			fatal(err)
		}
	}

	// The same door check rckserve applies to uploads: a chain the kernel
	// cannot align is an error, not a score.
	for _, s := range []*pdb.Structure{s1, s2} {
		if err := tmalign.ValidateStructure(s); err != nil {
			fatal(err)
		}
	}

	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	r := tmalign.Compare(s1, s2, opt)

	fmt.Printf("Name of Chain_1: %s\n", r.Name1)
	fmt.Printf("Name of Chain_2: %s\n", r.Name2)
	fmt.Printf("Length of Chain_1: %d residues\n", r.Len1)
	fmt.Printf("Length of Chain_2: %d residues\n\n", r.Len2)
	fmt.Printf("Aligned length= %d, RMSD= %6.2f, Seq_ID=n_identical/n_aligned= %.3f\n",
		r.AlignedLen, r.RMSD, r.SeqID)
	fmt.Printf("TM-score= %.5f (if normalized by length of Chain_1, i.e., LN=%d)\n", r.TM1, r.Len1)
	fmt.Printf("TM-score= %.5f (if normalized by length of Chain_2, i.e., LN=%d)\n", r.TM2, r.Len2)
	switch {
	case r.TM() >= 0.5:
		fmt.Println("(TM-score > 0.5: the structures share the same fold)")
	case r.TM() >= 0.3:
		fmt.Println("(0.3 < TM-score < 0.5: possible fold similarity)")
	default:
		fmt.Println("(TM-score < 0.3: no significant structural similarity)")
	}
	if *matrix {
		fmt.Println("\nRotation matrix to superpose Chain_1 onto Chain_2 (x' = R*x + t):")
		for i := 0; i < 3; i++ {
			fmt.Printf("  %10.6f %10.6f %10.6f   t%d=%10.4f\n",
				r.Transform.R[i][0], r.Transform.R[i][1], r.Transform.R[i][2], i, r.Transform.T[i])
		}
	}
	fmt.Println("\n(\":\" denotes residue pairs of d < 5.0 Angstrom, \".\" denotes other aligned residues)")
	fmt.Print(tmalign.FormatAlignment(r, s1, s2))
	fmt.Printf("\nOperation counts: %s\n", r.Ops.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmalign:", err)
	os.Exit(1)
}
