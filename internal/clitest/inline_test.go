package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPushAccessInlines pins that the compiler inlines the device's
// per-access record push at every call site in kernel.go: an object-level
// run records every access that resolves to a hit-table row, so a push
// that falls out of line again costs a call per access.
func TestPushAccessInlines(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(repoRoot(), "internal", "gpu", "kernel.go"))
	if err != nil {
		t.Fatal(err)
	}
	sites := len(regexp.MustCompile(`\.pushAccess\(`).FindAll(src, -1))
	if sites == 0 {
		t.Fatal("kernel.go has no pushAccess call site; test is vacuous")
	}
	build := exec.Command("go", "build", "-gcflags=-m", "./internal/gpu")
	build.Dir = repoRoot()
	out, err := build.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/gpu: %v\n%s", err, out)
	}
	inlined := 0
	var report []string
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "pushAccess") {
			continue
		}
		report = append(report, line)
		if strings.Contains(line, "kernel.go:") && strings.HasSuffix(line, "inlining call to (*Device).pushAccess") {
			inlined++
		}
	}
	if inlined != sites {
		t.Errorf("the compiler inlines %d of kernel.go's %d pushAccess call sites:\n%s", inlined, sites, strings.Join(report, "\n"))
	}
}
