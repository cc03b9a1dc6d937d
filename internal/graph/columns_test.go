package graph

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestColumnsRoundTrip: a graph's columns rebuild it — the same rows and
// the same transition matrix — whether it is all base (its listed
// positions are the base's own array, and so are its weights when the
// base stores them as float64; its targets and 2-byte weights are widened
// from the base's) or has an overlay (its columns are a packed copy, and
// the graph is left as it was).
func TestColumnsRoundTrip(t *testing.T) {
	dg := benchDocGraph(10, 40, 61)
	sub, _ := dg.LocalSubgraph(3)
	for name, g := range map[string]*Digraph{"base only": sub, "overlaid": overlaidGraph(t)} {
		before := g.base
		c := g.Columns()
		if g.base != before {
			t.Errorf("%s: taking the columns repacked the graph", name)
		}
		if len(g.patch)+len(g.tail) == 0 && len(c.ListedPos) > 0 && (&c.ListedPos[0] != &g.base.pos[0] || g.base.w != nil && &c.ListedW[0] != &g.base.w[0]) {
			t.Errorf("%s: the columns copied the listed links", name)
		}
		if len(c.Degrees) != g.NumNodes() || len(c.Targets) != g.NumEdges() || len(c.ListedPos) != g.numListed() {
			t.Fatalf("%s: columns of %d, %d and %d entries for %d nodes, %d links and %d listed",
				name, len(c.Degrees), len(c.Targets), len(c.ListedPos), g.NumNodes(), g.NumEdges(), g.numListed())
		}
		back, err := FromColumns(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(rowsOf(back), rowsOf(g)) {
			t.Errorf("%s: the rebuilt graph's rows differ", name)
		}
		if !reflect.DeepEqual(back.TransitionMatrix(), g.TransitionMatrix()) {
			t.Errorf("%s: the rebuilt graph's transition matrix differs", name)
		}
		canonical(t, name, back)
	}
	if c := NewDigraph(0).Columns(); c.Degrees != nil || c.Targets != nil {
		t.Errorf("the empty graph's columns are %+v", c)
	}
}

// TestFromColumnsRefusesWhatDecodeBinaryMerges: a row that is not
// strictly ascending is a file DecodeBinary sorts and merges, and
// columns FromColumns refuses — a shard is the deduplicated form.
func TestFromColumnsRefusesWhatDecodeBinaryMerges(t *testing.T) {
	c := Columns{Degrees: []uint32{2, 0}, Targets: []uint32{1, 1}}
	if _, err := FromColumns(c); err == nil || !strings.Contains(err.Error(), "edge 1 (0→1) is not past the row's previous target 1") {
		t.Errorf("a duplicate link: err = %v", err)
	}
	file := rawFile{names: []string{"a"}, sites: []uint32{0, 0}, urls: []string{"a/0", "a/1"}, degrees: c.Degrees, targets: c.Targets}
	dg, err := DecodeBinary(bytes.NewReader(file.bytes()))
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if p := dg.G.base; !slices.Equal(p.wide(), []uint32{1}) || !slices.Equal(p.off, []uint32{0, 1, 1}) || !slices.Equal(p.w16, []uint16{2}) || p.w != nil {
		t.Errorf("merged: targets %v at offsets %v, listed weights %v and %v; want one link of weight 2, in 2 bytes", p.wide(), p.off, p.w16, p.w)
	}
}
