package regcluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"regcluster"
)

func facadeMatrix() *regcluster.Matrix {
	return regcluster.MatrixFromRows([][]float64{
		{0, 10, 20, 30, 40},
		{0, 20, 40, 60, 80},
		{100, 75, 50, 25, 0},
	})
}

func TestPublicAPIReportRoundTrip(t *testing.T) {
	m := facadeMatrix()
	p := regcluster.Params{MinG: 3, MinC: 5, Gamma: 0.2, Epsilon: 1e-9}
	res, err := regcluster.Mine(m, p)
	if err != nil {
		t.Fatal(err)
	}
	doc := regcluster.Report(m, p, res)
	if doc.Schema != regcluster.ResultSchemaID {
		t.Fatalf("schema %q", doc.Schema)
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := regcluster.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Clusters) != len(res.Clusters) {
		t.Fatalf("round trip lost clusters: %d vs %d", len(back.Clusters), len(res.Clusters))
	}
	nc := regcluster.NamedFromBicluster(m, res.Clusters[0])
	if len(nc.Members) != 3 {
		t.Fatalf("members %+v", nc.Members)
	}
	signs := map[string]string{}
	for _, mb := range nc.Members {
		signs[mb.Gene] = mb.Sign
	}
	if signs[m.RowName(2)] != "-" {
		t.Fatalf("anti-regulated gene not signed '-': %v", signs)
	}
}

func TestPublicAPIObservedMining(t *testing.T) {
	m := facadeMatrix()
	p := regcluster.Params{MinG: 3, MinC: 5, Gamma: 0.2, Epsilon: 1e-9}
	var obs regcluster.Observer
	var streamed int
	res, err := regcluster.MineWith(context.Background(), m, p, regcluster.MineOptions{Workers: 2,
		Visit: func(b *regcluster.Bicluster) bool { streamed++; return true }, Observer: &obs})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	if streamed != 1 || obs.Nodes() != int64(stats.Nodes) {
		t.Fatalf("streamed %d, observed %d nodes vs stats %d", streamed, obs.Nodes(), stats.Nodes)
	}
	if err := regcluster.ValidateWorkers(8, 4); err == nil {
		t.Fatal("worker limit not enforced through the facade")
	}
}

func TestPublicAPIServiceEmbedding(t *testing.T) {
	svc := regcluster.NewService(regcluster.ServiceConfig{MaxConcurrentJobs: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var tsv bytes.Buffer
	if err := facadeMatrix().WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/datasets", "text/tab-separated-values", &tsv)
	if err != nil {
		t.Fatal(err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ds.ID == "" {
		t.Fatal("no dataset ID")
	}
	resp, err = ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"dataset":"`+ds.ID+`","params":{"MinG":3,"MinC":5,"Gamma":0.2,"Epsilon":0.000000001}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
