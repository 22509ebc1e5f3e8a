package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// splitPackages are attributed file by file: each of their non-test
// files needs its own entry, so a new file cannot fall back to a
// package-wide layer.
var splitPackages = map[string]bool{
	"internal/netsim":               true,
	"internal/transport/sublayered": true,
	"internal/transport/monolithic": true,
}

// goFiles returns the non-test Go files of every package directory
// under the repository's internal/ tree, keyed by repo-relative dir.
func goFiles(t *testing.T) map[string][]string {
	t.Helper()
	pkgs := map[string][]string{}
	err := filepath.WalkDir(filepath.Join("..", "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		name := d.Name()
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		pkgs[dir] = append(pkgs[dir], name)
		return nil
	})
	if err != nil {
		t.Fatalf("walk internal/: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found under ../internal")
	}
	return pkgs
}

func TestEveryPackageHasALayer(t *testing.T) {
	for dir, files := range goFiles(t) {
		if !splitPackages[dir] {
			if _, ok := layerTable[dir]; !ok {
				t.Errorf("package %s has no layer in layerTable", dir)
			}
			continue
		}
		if _, ok := layerTable[dir]; ok {
			t.Errorf("split package %s must be mapped file by file, not as a whole", dir)
		}
		for _, f := range files {
			if _, ok := layerTable[dir+"/"+f]; !ok {
				t.Errorf("file %s/%s has no layer in layerTable", dir, f)
			}
		}
	}
}

func TestLayerTableHasNoStaleEntries(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	keys := make([]string, 0, len(layerTable))
	for k := range layerTable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !known[layerTable[k]] {
			t.Errorf("%s maps to unknown layer %q", k, layerTable[k])
		}
		if _, err := os.Stat(filepath.Join("..", filepath.FromSlash(k))); err != nil {
			t.Errorf("%s is in layerTable but not in the repository: %v", k, err)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	cases := []struct {
		fn, file, want string
		repo           bool
	}{
		{"repro/internal/netsim.(*Simulator).Step", "repro/internal/netsim/sim.go", "netsim.engine", true},
		{"repro/internal/netsim.(*Sharded).window.func1", "/src/internal/netsim/sharded.go", "netsim.sharded", true},
		{"repro/internal/transport/sublayered.(*DM).allocPort", "repro/internal/transport/sublayered/dm.go", "sublayered.dm", true},
		{"repro/internal/metrics.(*Scope).Register", "repro/internal/metrics/registry.go", "metrics", true},
		{"repro/internal/overlay.mapGet[go.shape.string]", "repro/internal/overlay/node.go", "overlay", true},
		{"main.main", "repro/perfbench/main.go", "harness", true},
		{"runtime.mallocgc", "runtime/malloc.go", "", false},
		{"container/heap.Pop", "container/heap/heap.go", "", false},
	}
	for _, c := range cases {
		got, repo := frameLayer(c.fn, c.file)
		if got != c.want || repo != c.repo {
			t.Errorf("frameLayer(%q) = %q, %v; want %q, %v", c.fn, got, repo, c.want, c.repo)
		}
	}
}
