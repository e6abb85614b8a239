package server

import (
	"slices"
	"sync"
	"testing"

	"github.com/htc-align/htc/internal/core"
)

func TestCacheKeyNormalisation(t *testing.T) {
	// An empty config and the explicit paper defaults are the same run,
	// so they must share a key.
	a := &AlignRequest{Dataset: "econ", N: 100}
	b := &AlignRequest{Dataset: "econ", N: 100, Remove: 0.1,
		Config: core.Config{}.WithDefaults(), HitsAt: []int{10, 1, 5, 5}}
	ka, err := cacheKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := cacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("equivalent requests hash differently:\n%s\n%s", ka, kb)
	}

	// Datasets that ignore remove (two-network simulators) must hash
	// the same regardless of it; inline requests ignore it too.
	d1, err := cacheKey(&AlignRequest{Dataset: "douban"})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cacheKey(&AlignRequest{Dataset: "douban", Remove: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("douban ignores remove, so the keys must match")
	}

	// Any semantic difference must change the key.
	for name, req := range map[string]*AlignRequest{
		"different n":       {Dataset: "econ", N: 101},
		"different seed":    {Dataset: "econ", N: 100, DataSeed: 9},
		"different variant": {Dataset: "econ", N: 100, Config: core.Config{Variant: core.DiffusionFT}},
		"different remove":  {Dataset: "econ", N: 100, Remove: 0.2},
		"different cutoffs": {Dataset: "econ", N: 100, HitsAt: []int{1}},
	} {
		k, err := cacheKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if k == ka {
			t.Errorf("%s: key collision", name)
		}
	}
}

// TestLRU drives the server's one cache implementation through each of
// its contracts; every case starts from an empty capacity-2 cache and
// ends by checking the surviving entries, most recently used first.
func TestLRU(t *testing.T) {
	res := func(epochs int) AlignResult { return AlignResult{EpochsTrained: epochs} }
	cases := []struct {
		name string
		ops  func(t *testing.T, c *lru[string, AlignResult])
		want []int // EpochsTrained of values(), most recently used first
	}{
		{"get refreshes recency before eviction", func(t *testing.T, c *lru[string, AlignResult]) {
			c.put("a", res(1))
			c.put("b", res(2))
			if got, ok := c.get("a"); !ok || got.EpochsTrained != 1 {
				t.Fatalf("get(a) = %+v, %v", got, ok)
			}
			c.put("c", res(3)) // evicts b, the least recently used
			if _, ok := c.get("b"); ok {
				t.Error("b should have been evicted")
			}
		}, []int{3, 1}},
		{"replace in place", func(t *testing.T, c *lru[string, AlignResult]) {
			c.put("a", res(1))
			c.put("b", res(2))
			replaced, evicted := c.put("a", res(10))
			if !replaced || evicted != 0 {
				t.Errorf("put(a) again: replaced=%v evicted=%d, want true 0", replaced, evicted)
			}
		}, []int{10, 2}},
		{"evicted count", func(t *testing.T, c *lru[string, AlignResult]) {
			total := 0
			for i, key := range []string{"a", "b", "c", "d"} {
				replaced, evicted := c.put(key, res(i+1))
				if replaced {
					t.Errorf("put(%s) reported a replacement", key)
				}
				total += evicted
			}
			if total != 2 {
				t.Errorf("4 puts into capacity 2 evicted %d entries, want 2", total)
			}
		}, []int{4, 3}},
		{"delete", func(t *testing.T, c *lru[string, AlignResult]) {
			c.put("a", res(1))
			c.put("b", res(2))
			if !c.delete("a") {
				t.Error("delete(a) reported a miss")
			}
			if c.delete("a") {
				t.Error("second delete(a) reported a hit")
			}
			if _, ok := c.get("a"); ok {
				t.Error("a survived its deletion")
			}
		}, []int{2}},
		{"values most recent first", func(t *testing.T, c *lru[string, AlignResult]) {
			c.put("a", res(1))
			c.put("b", res(2))
			c.get("a")
		}, []int{1, 2}},
		{"result hit is a copy flagged Cached", func(t *testing.T, c *lru[string, AlignResult]) {
			s := &Server{results: c}
			stored := res(1)
			c.put("a", stored)
			hit := s.cachedResult("a")
			if hit == nil || hit.EpochsTrained != 1 || !hit.Cached {
				t.Fatalf("cachedResult(a) = %+v, want a Cached copy of the stored result", hit)
			}
			hit.EpochsTrained = 99
			if again := s.cachedResult("a"); again.EpochsTrained != 1 {
				t.Error("mutating a hit changed the cached entry: hits must be copies")
			}
			if s.cachedResult("missing") != nil {
				t.Error("a miss must return nil")
			}
		}, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRU[string, AlignResult](2)
			tc.ops(t, c)
			var got []int
			for _, v := range c.values() {
				got = append(got, v.EpochsTrained)
			}
			if !slices.Equal(got, tc.want) || c.len() != len(tc.want) {
				t.Errorf("values = %v (len %d), want %v", got, c.len(), tc.want)
			}
		})
	}
}

// TestLRUConcurrent hammers one cache from several goroutines at once;
// run it under the race detector. The capacity bound must hold however
// the operations interleave.
func TestLRUConcurrent(t *testing.T) {
	const capacity, goroutines, ops = 4, 8, 500
	c := newLRU[int, int](capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := (g*ops + i) % (3 * capacity)
				switch i % 4 {
				case 0, 1:
					c.put(key, i)
				case 2:
					c.get(key)
				case 3:
					c.delete(key)
				}
				if n := len(c.values()); n > capacity {
					t.Errorf("values holds %d entries, capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Fatalf("len = %d after the storm, capacity %d", n, capacity)
	}
}
