package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"resistecc/internal/testutil"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% konect-style comment
10 20
20 30 0.5
30 10
10 10
20 10
`
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3, 3", g.N(), g.M())
	}
	if labels[0] != 10 || labels[1] != 20 || labels[2] != 30 {
		t.Fatalf("labels %v", labels)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("single field should fail")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-integer should fail")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := BarabasiAlbert(60, 2, 9)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", h.N(), h.M(), g.N(), g.M())
	}
}

func TestSaveLoadEdgeList(t *testing.T) {
	g := Cycle(10)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	h, _, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 10 || h.M() != 10 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if _, _, err := LoadEdgeList(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestCSRView(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	c := g.ToCSR()
	if c.N != 4 || c.M != 4 {
		t.Fatalf("csr n=%d m=%d", c.N, c.M)
	}
	for u := 0; u < 4; u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
	arcs := 0
	for u := 0; u < 4; u++ {
		for _, v := range c.Neighbors(u) {
			if !g.HasEdge(u, int(v)) {
				t.Fatalf("arc %d→%d is not an edge", u, v)
			}
			arcs++
		}
	}
	if arcs != 2*c.M {
		t.Fatalf("%d arcs, want 2m = %d", arcs, 2*c.M)
	}
}

func TestCSRLapMul(t *testing.T) {
	g := Star(5)
	c := g.ToCSR()
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	c.LapMul(x, y)
	// L x at hub: 4*1 − (2+3+4+5) = −10; at leaf i: 1*x_i − 1.
	if y[0] != -10 {
		t.Fatalf("hub: %g", y[0])
	}
	for i := 1; i < 5; i++ {
		want := x[i] - 1
		if y[i] != want {
			t.Fatalf("leaf %d: %g want %g", i, y[i], want)
		}
	}
	// Row sums of L are zero: L·1 = 0.
	ones := []float64{1, 1, 1, 1, 1}
	c.LapMul(ones, y)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("L·1 ≠ 0 at %d: %g", i, v)
		}
	}
}

func TestCSRAdjMul(t *testing.T) {
	g := Cycle(4)
	c := g.ToCSR()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	c.AdjMul(x, y)
	want := []float64{2 + 4, 1 + 3, 2 + 4, 1 + 3}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("A·x[%d]=%g want %g", i, y[i], want[i])
		}
	}
}

// TestErrorPathsCloseFiles: a SaveEdgeList whose write fails still closes
// the file it created.
func TestErrorPathsCloseFiles(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	testutil.CheckFiles(t)
	if err := Cycle(8).SaveEdgeList("/dev/full"); err == nil {
		t.Fatal("SaveEdgeList to /dev/full succeeded")
	}
}
