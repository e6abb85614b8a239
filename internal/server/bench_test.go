package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func decodeBench(b *testing.B, resp *http.Response, v any) {
	b.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerRoundtrip measures one uncached submit→poll→result cycle
// over HTTP on a small synthetic pair: a quick serving-layer smoke number
// (the benchmark's serve-mixed workload is the tracked measurement).
func BenchmarkServerRoundtrip(b *testing.B) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	for i := 0; i < b.N; i++ {
		// A distinct data_seed per iteration defeats the cache, so each
		// iteration pays for a full pipeline run.
		body := strings.NewReader(fmt.Sprintf(`{"dataset":"synthetic","n":80,"data_seed":%d,
			"config":{"variant":"HTC-L","epochs":5,"hidden":8,"embed":4,"m":5}}`, i+1))
		resp, err := http.Post(ts.URL+"/v1/align", "application/json", body)
		if err != nil {
			b.Fatal(err)
		}
		var info JobInfo
		decodeBench(b, resp, &info)
		for {
			r, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
			if err != nil {
				b.Fatal(err)
			}
			var polled JobInfo
			decodeBench(b, r, &polled)
			if polled.Status == StatusDone {
				break
			}
			if polled.Status == StatusFailed || polled.Status == StatusCancelled {
				b.Fatalf("job finished %s: %s", polled.Status, polled.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// BenchmarkCacheHit measures the served-from-memory path: the same
// request over and over, only the first submission computing anything.
func BenchmarkCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	body := `{"dataset":"synthetic","n":80,"data_seed":5,
		"config":{"variant":"HTC-L","epochs":5,"hidden":8,"embed":4,"m":5}}`
	// Warm the cache.
	resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var info JobInfo
	decodeBench(b, resp, &info)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
		if err != nil {
			b.Fatal(err)
		}
		var polled JobInfo
		decodeBench(b, r, &polled)
		if polled.Status == StatusDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var hit JobInfo
		decodeBench(b, resp, &hit)
		if resp.StatusCode != http.StatusOK || hit.Result == nil || !hit.Result.Cached {
			b.Fatalf("expected cache hit, got %d %+v", resp.StatusCode, hit)
		}
	}
}

// BenchmarkCacheKey measures request hashing, the fixed cost every
// submission pays.
func BenchmarkCacheKey(b *testing.B) {
	edges := make([][2]int, 0, 4000)
	for i := 0; i < 4000; i++ {
		edges = append(edges, [2]int{i % 1000, (i*7 + 1) % 1000})
	}
	req := &AlignRequest{
		Source: &GraphSpec{Nodes: 1000, Edges: edges},
		Target: &GraphSpec{Nodes: 1000, Edges: edges},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cacheKey(req); err != nil {
			b.Fatal(err)
		}
	}
}
