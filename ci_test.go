package bmw_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// ciPath matches a package path the workflow names.
	ciPath = regexp.MustCompile(`\./(?:internal|cmd)(?:/[A-Za-z0-9_]+)+`)
	// ciFuzzEntry matches one fuzz-matrix entry: target, then package.
	ciFuzzEntry = regexp.MustCompile(`(?m)^\s*- target: (\S+)\n\s*package: (\S+)`)
	// ciStep matches the first line of a workflow step.
	ciStep = regexp.MustCompile(`(?m)^\s*- (?:name|uses):`)
	// ciRun matches a go test -run pattern, quoted or not.
	ciRun = regexp.MustCompile(`-run[= ]'?([^'\s]*)'?`)
	// goFunc matches a top-level test, fuzz, benchmark or example
	// function declaration.
	goFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
)

// TestCIWorkflowRefs keeps .github/workflows/ci.yml honest against the
// tree: every ./internal/… and ./cmd/… path it names exists, every
// fuzz-matrix target is a Fuzz function in its package, and every name
// in a -run alternation is a Test function in a package its step names.
// A -run that matches nothing passes silently, so without this check a
// renamed or deleted test drops out of CI unnoticed.
func TestCIWorkflowRefs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	funcs := map[string]map[string]bool{}
	funcsIn := func(pkg string) map[string]bool {
		if fs, ok := funcs[pkg]; ok {
			return fs
		}
		fs := map[string]bool{}
		files, _ := filepath.Glob(filepath.Join(pkg, "*.go"))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range goFunc.FindAllStringSubmatch(string(src), -1) {
				fs[m[1]] = true
			}
		}
		funcs[pkg] = fs
		return fs
	}

	paths := ciPath.FindAllString(doc, -1)
	if len(paths) == 0 {
		t.Fatal("ci.yml names no ./internal or ./cmd package")
	}
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Errorf("ci.yml names %s, which is not a directory", p)
		}
	}

	fuzz := ciFuzzEntry.FindAllStringSubmatch(doc, -1)
	if len(fuzz) == 0 {
		t.Fatal("ci.yml has no fuzz-matrix entry")
	}
	for _, m := range fuzz {
		target, pkg := m[1], m[2]
		if !strings.HasPrefix(target, "Fuzz") || !funcsIn(pkg)[target] {
			t.Errorf("fuzz matrix names %s in %s, which declares no such Fuzz function", target, pkg)
		}
	}

	starts := ciStep.FindAllStringIndex(doc, -1)
	runs := 0
	for i, s := range starts {
		end := len(doc)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		step := doc[s[0]:end]
		var pkgs []string
		for _, line := range strings.Split(step, "\n") {
			if !strings.Contains(line, "go test") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if f == "." || strings.HasPrefix(f, "./") {
					pkgs = append(pkgs, f)
				}
			}
		}
		for _, m := range ciRun.FindAllStringSubmatch(step, -1) {
			for _, name := range strings.Split(m[1], "|") {
				name = strings.Trim(name, "^$")
				if name == "" {
					continue
				}
				runs++
				found := false
				for _, p := range pkgs {
					found = found || funcsIn(p)[name]
				}
				if !strings.HasPrefix(name, "Test") || !found {
					t.Errorf("ci.yml runs %s in %v, and none of them declares that Test function", name, pkgs)
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("ci.yml has no -run alternation")
	}
}
