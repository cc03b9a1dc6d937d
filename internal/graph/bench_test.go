package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

func benchDocGraph(nSites, docsPerSite int, seed int64) *DocGraph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	var ids []DocID
	for s := 0; s < nSites; s++ {
		host := fmt.Sprintf("s%d.example", s)
		for d := 0; d < docsPerSite; d++ {
			ids = append(ids, b.AddDocInSite(fmt.Sprintf("http://%s/p%d", host, d), host))
		}
	}
	for e := 0; e < len(ids)*6; e++ {
		b.LinkIDs(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
	}
	return b.Build()
}

func BenchmarkDeriveSiteGraph(b *testing.B) {
	dg := benchDocGraph(200, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeriveSiteGraph(dg, SiteGraphOptions{})
	}
}

func BenchmarkTransitionMatrix(b *testing.B) {
	dg := benchDocGraph(100, 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg.G.TransitionMatrix()
	}
}

// BenchmarkCloneCOW is the clone an Update starts from, of a web a few
// updates old: B/op is the overlay, not the web.
func BenchmarkCloneCOW(b *testing.B) {
	dg := benchDocGraph(200, 100, 5)
	for i := 0; i < 20; i++ {
		dg.G.AddLink(i*997%dg.NumDocs(), i)
	}
	dg.G.Dedupe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg.CloneCOW()
	}
}

func BenchmarkTextRoundTrip(b *testing.B) {
	dg := benchDocGraph(50, 100, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteText(&buf, dg); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadText(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryRoundTrip times the two halves of the graph file apart,
// per byte of file.
func BenchmarkBinaryRoundTrip(b *testing.B) {
	dg := benchDocGraph(50, 100, 4)
	var file bytes.Buffer
	if err := EncodeBinary(&file, dg); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := EncodeBinary(io.Discard, dg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
