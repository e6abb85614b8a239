package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/htc-align/htc/internal/core"
)

// cacheKey derives the content hash that identifies an alignment: the
// resolved request — graphs (or dataset coordinates), normalised pipeline
// config and evaluation cutoffs — serialised canonically and hashed.
// Requests that differ only in fields the run ignores (an unset epoch
// count vs the explicit default, an inline pair's n or data_seed) map to
// the same key. Workers is excluded: parallelism never changes the
// result, so requests differing only in their CPU budget share one cache
// entry.
func cacheKey(req *AlignRequest) (string, error) {
	canonical := struct {
		Dataset  string      `json:"dataset,omitempty"`
		Upload   string      `json:"upload,omitempty"`
		N        int         `json:"n,omitempty"`
		DataSeed int64       `json:"data_seed,omitempty"`
		Remove   float64     `json:"remove,omitempty"`
		Source   *GraphSpec  `json:"source,omitempty"`
		Target   *GraphSpec  `json:"target,omitempty"`
		Truth    []int       `json:"truth,omitempty"`
		Config   interface{} `json:"config"`
		HitsAt   []int       `json:"hits_at"`
	}{
		Dataset:  req.Dataset,
		N:        req.N,
		DataSeed: req.DataSeed,
		Remove:   canonicalRemove(req),
		Source:   req.Source,
		Target:   req.Target,
		Truth:    req.Truth,
		Config:   canonicalConfig(req.Config),
		HitsAt:   req.cutoffs(),
	}
	if req.Dataset == "" {
		// An inline pair ignores the generator's size and seed.
		canonical.N, canonical.DataSeed = 0, 0
	}
	if req.upload != nil {
		// An uploaded dataset's cache identity is its content (graphs +
		// truth), not its mutable id: re-uploading the same data under
		// another name, or re-using an id for new data, both do the
		// right thing.
		canonical.Dataset = ""
		canonical.Upload = req.upload.contentHash()
	}
	blob, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("hashing request: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalConfig normalises a pipeline config for hashing and strips the
// fields that cannot influence the result (currently the worker budget).
func canonicalConfig(cfg core.Config) core.Config {
	cfg = cfg.WithDefaults()
	//lint:allow knobcover workers is a pure performance knob: results are bit-identical at every worker count
	cfg.Workers = 0
	return cfg
}

// lru is a bounded, thread-safe map that evicts its least recently used
// entry when full. The server keeps four: finished results, refine
// results, prepared pairs and uploaded datasets. Alignment and refinement
// are deterministic given their keys (every random choice is seed-driven),
// so no entry ever goes stale; capacity is the only bound.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns the value stored under key and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores val under key as the most recently used entry. It reports
// whether an entry under key was replaced, and how many least recently
// used entries were evicted to stay within capacity.
func (c *lru[K, V]) put(key K, val V) (replaced bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return true, 0
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return false, evicted
}

// delete removes the entry under key, reporting whether it existed.
func (c *lru[K, V]) delete(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// len reports the number of entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// values returns every stored value, most recently used first.
func (c *lru[K, V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).val)
	}
	return out
}
