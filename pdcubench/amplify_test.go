package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// readTree returns every file under dir by relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		files[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestAmplifyDeterministic pins the amplifier's contract: the same seed
// writes byte-identical files, and another seed writes other files.
func TestAmplifyDeterministic(t *testing.T) {
	base := t.TempDir()
	const n = 120
	var trees []map[string][]byte
	for i, seed := range []int64{7, 7, 8} {
		dir := filepath.Join(base, string(rune('a'+i)))
		m, err := Amplify(dir, "scale", n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Activities) != n {
			t.Fatalf("seed %d: %d activities, want %d", seed, len(m.Activities), n)
		}
		trees = append(trees, readTree(t, dir))
	}
	if len(trees[0]) != n {
		t.Fatalf("wrote %d files, want %d", len(trees[0]), n)
	}
	for name, data := range trees[0] {
		if !bytes.Equal(data, trees[1][name]) {
			t.Fatalf("%s differs between two runs with the same seed", name)
		}
	}
	same := 0
	for name, data := range trees[0] {
		if bytes.Equal(data, trees[2][name]) {
			same++
		}
	}
	if same == len(trees[0]) {
		t.Fatal("seeds 7 and 8 wrote identical corpora")
	}
}

// TestAmplifyGroundTruth checks that every marker is unique and that the
// tallies are the sums of the recorded tags.
func TestAmplifyGroundTruth(t *testing.T) {
	m, err := Amplify(t.TempDir(), "scale", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	markers := map[string]bool{}
	sum := map[string]int{}
	for _, p := range m.Activities {
		if markers[p.Marker] {
			t.Fatalf("marker %s planted twice", p.Marker)
		}
		markers[p.Marker] = true
		for _, param := range facetParamNames {
			sum[param] += len(p.facet(param))
		}
	}
	for _, param := range facetParamNames {
		got := 0
		for _, c := range m.Tally[param] {
			got += c
		}
		if got != sum[param] {
			t.Fatalf("%s tally sums to %d, tags to %d", param, got, sum[param])
		}
	}
	if m.Tally["source"]["scale"] != 200 {
		t.Fatalf("source tally %v", m.Tally["source"])
	}
}
