package clitest

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFunc   = regexp.MustCompile(`^func (Fuzz\w*)\(`)
	fuzzRecipe = regexp.MustCompile(`-fuzz '\^(Fuzz\w*)\$\$'.*\s(\./\S+)\s*$`)
)

// TestFuzzSmokeRunsEveryTarget checks that the Makefile's fuzz-smoke
// recipe, which CI's fuzz step runs, fuzzes every native fuzz target in
// the module's test files. A target missing from the recipe would only
// replay its seed corpus under go test and never search past it.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	root := repoRoot()
	listed := fuzzSmokeTargets(t, root)
	if len(listed) == 0 {
		t.Fatal("the Makefile's fuzz-smoke recipe runs no fuzz target")
	}
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go command skips testdata and dot and underscore
			// directories, and a directory with its own go.mod is
			// another module.
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(rel)
		for _, name := range fuzzTargets(t, path) {
			found++
			if !listed[pkg+" "+name] {
				t.Errorf("%s in %s is not run by make fuzz-smoke: add it to the recipe", name, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz target in the module")
	}
}

// fuzzSmokeTargets returns the "./pkg FuzzName" pairs the Makefile's
// fuzz-smoke recipe runs.
func fuzzSmokeTargets(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	inRecipe := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-smoke:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(line, "\t"):
			if m := fuzzRecipe.FindStringSubmatch(line); m != nil {
				listed[m[2]+" "+m[1]] = true
			}
		default:
			inRecipe = false
		}
	}
	return listed
}

// fuzzTargets returns the names of the fuzz targets a test file declares.
func fuzzTargets(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := fuzzFunc.FindStringSubmatch(sc.Text()); m != nil {
			names = append(names, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}
