package rckalign

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// locCeiling bounds the module's non-test Go lines outside bench/. Lower
// it when code goes; never raise it (ROADMAP aim 2).
const locCeiling = 17229

// TestNonTestLinesStayUnderCeiling counts the lines of every .go file
// that is not a _test.go file, skipping bench/ (its own module) and
// dot-directories, and holds the sum to locCeiling.
func TestNonTestLinesStayUnderCeiling(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		lines += bytes.Count(b, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d non-test Go lines (ceiling %d)", lines, locCeiling)
	if lines > locCeiling {
		t.Errorf("%d non-test Go lines outside bench/, above the ceiling of %d", lines, locCeiling)
	}
}
