package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htc-align/htc/internal/core"
)

// TestPerJobWorkersNeverOversubscribes is the budgeting invariant: as long
// as the pool is no larger than the machine, the per-job budgets of a
// saturated pool must sum to at most GOMAXPROCS; larger pools bottom out
// at the 1-worker floor.
func TestPerJobWorkersNeverOversubscribes(t *testing.T) {
	for gmp := 1; gmp <= 16; gmp++ {
		for pool := 1; pool <= 16; pool++ {
			w := perJobWorkers(gmp, pool)
			if w < 1 {
				t.Fatalf("gomaxprocs=%d pool=%d: budget %d < 1", gmp, pool, w)
			}
			sum := w * pool
			if pool <= gmp && sum > gmp {
				t.Fatalf("gomaxprocs=%d pool=%d: budgets sum to %d > GOMAXPROCS", gmp, pool, sum)
			}
			if pool > gmp && w != 1 {
				t.Fatalf("gomaxprocs=%d pool=%d: over-full pool budget %d, want floor 1", gmp, pool, w)
			}
		}
	}
}

// TestJobConfigCapsWorkers pins how a request's config.workers interacts
// with the server budget: 0 means "take the full per-job share", smaller
// requests are honoured, larger ones are clamped.
func TestJobConfigCapsWorkers(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	budget := perJobWorkers(runtime.GOMAXPROCS(0), 2)

	job := &Job{}
	if got := s.jobConfig(job, core.Config{}, 0, 0).Workers; got != budget {
		t.Fatalf("default config got %d workers, want budget %d", got, budget)
	}
	if got := s.jobConfig(job, core.Config{Workers: 1}, 0, 0).Workers; got != 1 {
		t.Fatalf("explicit 1 worker got %d", got)
	}
	if got := s.jobConfig(job, core.Config{Workers: budget + 7}, 0, 0).Workers; got != budget {
		t.Fatalf("oversized request got %d workers, want clamp to %d", got, budget)
	}
}

// TestConcurrentJobsStayWithinBudget floods a 2-worker server with jobs
// and asserts every completed job reports a per-job budget within the
// server's share — i.e. in-flight jobs cannot jointly exceed GOMAXPROCS.
func TestConcurrentJobsStayWithinBudget(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()
	budget := perJobWorkers(runtime.GOMAXPROCS(0), 2)

	submit := func(seed int) string {
		body := fmt.Sprintf(`{"dataset":"synthetic","n":30,"data_seed":%d,"config":{"epochs":3,"k":2}}`, seed)
		resp, err := http.Post(srv.URL+"/v1/align", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var info JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}

	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submit(i))
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				var info JobInfo
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch info.Status {
				case StatusDone:
					if info.Result.WorkersUsed > budget {
						t.Errorf("job %s used %d workers, budget %d", id, info.Result.WorkersUsed, budget)
					}
					return
				case StatusFailed, StatusCancelled:
					t.Errorf("job %s ended %s: %s", id, info.Status, info.Error)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			t.Errorf("job %s did not finish", id)
		}(id)
	}
	wg.Wait()
}

// TestCacheKeyIgnoresWorkers: two requests that differ only in their CPU
// budget compute the same alignment, so they must share a cache entry.
func TestCacheKeyIgnoresWorkers(t *testing.T) {
	mk := func(workers int) *AlignRequest {
		return &AlignRequest{Dataset: "synthetic", N: 40, Config: core.Config{Workers: workers}}
	}
	k1, err := cacheKey(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cacheKey(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("cache key depends on the worker budget")
	}
	k3, err := cacheKey(&AlignRequest{Dataset: "synthetic", N: 41, Config: core.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("cache key ignored a significant field")
	}
}
