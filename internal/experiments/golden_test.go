package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden.txt from the registry")

const goldenPath = "testdata/experiments.golden.txt"

// TestExperimentsGolden regenerates every deterministic experiment from
// the committed pair caches and byte-compares the result with the golden
// — the same bytes `go run ./cmd/benchtables` prints. After an intended
// change: go test ./internal/experiments -run TestExperimentsGolden -update,
// then paste the changed blocks into EXPERIMENTS.md.
func TestExperimentsGolden(t *testing.T) {
	dir := cacheDir(t)
	if _, err := os.Stat(filepath.Join(dir, "RS119.gob")); err != nil {
		t.Skipf("RS119 cache missing: %v", err)
	}
	exps, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	var datasets []string
	for _, x := range exps {
		datasets = append(datasets, x.Datasets...)
	}
	env, err := Load(dir, datasets...)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Run(&got, env, exps); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s (rerun with -update if intended):\n got %q\nwant %q", i+1, goldenPath, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d (rerun with -update if intended)", len(gl), goldenPath, len(wl))
}

// TestExperimentsDocVerbatim keeps EXPERIMENTS.md from drifting: every
// block of the golden (a table or a figure) appears in it line for line.
func TestExperimentsDocVerbatim(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(strings.TrimSpace(string(golden)), "\n\n")
	if len(blocks) < len(registry)-1 {
		t.Fatalf("golden has %d blocks for %d deterministic experiments", len(blocks), len(registry)-1)
	}
	for _, b := range blocks {
		if !strings.Contains(string(doc), "\n"+b+"\n") {
			title, _, _ := strings.Cut(b, "\n")
			t.Errorf("EXPERIMENTS.md does not carry this block of %s verbatim: %q", goldenPath, title)
		}
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range Registry() {
		if x.Name == "" || seen[x.Name] || strings.ContainsAny(x.Name, ", ") {
			t.Errorf("experiment name %q is empty, repeated or not a -only token", x.Name)
		}
		seen[x.Name] = true
	}

	names := func(exps []Experiment) string {
		var out []string
		for _, x := range exps {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	all, err := Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range all {
		if x.HostTimed {
			t.Errorf("host-timed %s selected without being named", x.Name)
		}
	}
	if len(all) != len(registry)-1 {
		t.Errorf("default selection has %d of %d entries, want all but serveload", len(all), len(registry))
	}
	sel, err := Select([]string{"serveload", "polling", "table1"})
	if err != nil || names(sel) != "table1,polling,serveload" {
		t.Errorf("Select by name = %s, %v; want registry order table1,polling,serveload", names(sel), err)
	}
	_, err = Select([]string{"table2", "tabel3"})
	if err == nil || !strings.Contains(err.Error(), `"tabel3"`) {
		t.Fatalf("unknown name: err = %v, want one naming tabel3", err)
	}
	for _, x := range registry {
		if !strings.Contains(err.Error(), x.Name) {
			t.Errorf("unknown-name error does not list %s: %v", x.Name, err)
		}
	}

	// Every entry runs on exactly the datasets it declares: the others
	// are nil here, so an undeclared dereference panics.
	small := smallEnv()
	for _, x := range all {
		t.Run(x.Name, func(t *testing.T) {
			env := &Env{}
			for _, d := range x.Datasets {
				switch d {
				case "CK34":
					env.CK34 = small.CK34
				case "RS119":
					env.RS119 = small.RS119
				default:
					t.Fatalf("declares unknown dataset %q", d)
				}
			}
			if out, err := x.Run(env); err != nil || out == "" {
				t.Fatalf("Run on its declared datasets %v: %d bytes, err %v", x.Datasets, len(out), err)
			}
		})
	}
}
