package core

import (
	"context"
	"reflect"
	"testing"

	"regcluster/internal/paperdata"
)

func TestMineFuncMatchesMine(t *testing.T) {
	m := randomMatrix(40, 9, 13)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	res, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*Bicluster
	stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
		streamed = append(streamed, b)
		return true
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Clusters) {
		t.Fatalf("streamed %d, accumulated %d", len(streamed), len(res.Clusters))
	}
	for i := range streamed {
		if streamed[i].Key() != res.Clusters[i].Key() {
			t.Fatalf("order diverged at %d", i)
		}
	}
	if stats.Clusters != res.Stats.Clusters || stats.Nodes != res.Stats.Nodes {
		t.Errorf("stats diverged: %+v vs %+v", stats, res.Stats)
	}
}

func TestMineFuncEarlyStop(t *testing.T) {
	m := randomMatrix(40, 9, 13)
	p := Params{MinG: 3, MinC: 3, Gamma: 0.05, Epsilon: 0.4}
	full, err := Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Clusters) < 3 {
		t.Skip("not enough clusters on this seed")
	}
	var streamed []*Bicluster
	stats, err := statsOf(MineWith(context.Background(), m, p, Options{Workers: 1, Visit: func(b *Bicluster) bool {
		streamed = append(streamed, b)
		return len(streamed) < 3
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 3 {
		t.Fatalf("streamed %d after early stop", len(streamed))
	}
	if !stats.Truncated {
		t.Error("early stop should mark Truncated")
	}
	// The prefix property.
	for i := range streamed {
		if streamed[i].Key() != full.Clusters[i].Key() {
			t.Fatal("streamed prefix diverged")
		}
	}
}

func TestMineFuncRunningExample(t *testing.T) {
	m := paperdata.RunningExample()
	var got []*Bicluster
	_, err := statsOf(MineWith(context.Background(), m, runningParams(), Options{Workers: 1, Visit: func(b *Bicluster) bool {
		got = append(got, b)
		return true
	}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Chain, paperdata.RunningExampleChain()) {
		t.Fatalf("streamed result wrong: %v", got)
	}
}

func TestMineFuncValidation(t *testing.T) {
	m := paperdata.RunningExample()
	if _, err := statsOf(MineWith(context.Background(), m, Params{MinG: 0, MinC: 2, Gamma: 0.1}, Options{Workers: 1, Visit: func(*Bicluster) bool { return true }})); err == nil {
		t.Fatal("invalid params accepted")
	}
}
