package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// maxLine is the longest edge-list line ReadEdgeList accepts, newline
// included; a longer one fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// ReadEdgeList parses a whitespace-separated edge-list stream, the common
// interchange format of KONECT and NetworkRepository. Lines starting with
// '#' or '%' are comments. Node labels may be arbitrary non-negative
// integers; they are compacted to 0..n-1 in first-seen order. Duplicate
// edges, reversed duplicates and self-loops are silently dropped — the same
// preprocessing the paper applies (§IV-B) before taking the LCC.
//
// It returns the graph plus the original labels indexed by compact id.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	// Lines up to 1 MB parse; the buffer starts small and grows only for
	// long lines.
	sc.Buffer(nil, maxLine)
	ids := make(map[int64]int)
	var labels []int64
	intern := func(raw int64) int {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := len(labels)
		ids[raw] = id
		labels = append(labels, raw)
		return id
	}
	type pair struct{ u, v int }
	var pairs []pair
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: edge list line %d: need two fields, got %q", line, text)
		}
		a, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		// Extra fields (weights, timestamps) are ignored: the paper converts
		// weighted/directed networks to simple undirected ones.
		pairs = append(pairs, pair{intern(a), intern(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	g := New(len(labels))
	for _, p := range pairs {
		if p.u == p.v || g.HasEdge(p.u, p.v) {
			continue
		}
		mustAdd(g, p.u, p.v)
	}
	return g, labels, nil
}

// LoadEdgeList reads an edge-list file from disk; see ReadEdgeList.
func LoadEdgeList(path string) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// IDMap translates between external node ids, the labels of an edge-list
// file, and the internal ids of the component an index is built on. Loading
// relabels twice: ReadEdgeList compacts the labels (first-seen order), and
// LargestComponent renumbers the component's nodes. IDMap composes the two,
// so callers read and print only ids that are in the file.
type IDMap struct {
	// ToExternal maps an internal id to its external id.
	ToExternal []int64
	toInternal map[int64]int
}

// ComposeIDs composes the edge-list labels (labels[compact] = external; nil
// means external == compact) with a component relabelling over its n nodes
// (sub[internal] = compact, as LargestComponent returns it; nil means the
// identity).
func ComposeIDs(n int, labels []int64, sub []int) *IDMap {
	ext := make([]int64, n)
	for v := range ext {
		orig := v
		if sub != nil {
			orig = sub[v]
		}
		ext[v] = int64(orig)
		if labels != nil {
			ext[v] = labels[orig]
		}
	}
	return NewIDMap(ext)
}

// NewIDMap indexes an internal → external id table.
func NewIDMap(toExternal []int64) *IDMap {
	m := &IDMap{ToExternal: toExternal, toInternal: make(map[int64]int, len(toExternal))}
	for v, ext := range toExternal {
		m.toInternal[ext] = v
	}
	return m
}

// Internal translates an external id; ok is false for an id outside the
// component.
func (m *IDMap) Internal(ext int64) (v int, ok bool) {
	v, ok = m.toInternal[ext]
	return v, ok
}

// External translates an internal id. An id out of range, which no
// translated query yields, echoes back, so diagnostics never panic.
func (m *IDMap) External(v int) int64 {
	if v < 0 || v >= len(m.ToExternal) {
		return int64(v)
	}
	return m.ToExternal[v]
}

// Externals translates a list of internal ids.
func (m *IDMap) Externals(vs []int) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = m.External(v)
	}
	return out
}

// WriteEdgeList emits the graph as "u v" lines in canonical edge order.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	g.EachEdge(func(u, v int) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file; see WriteEdgeList.
func (g *Graph) SaveEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
