package sched

import (
	"container/list"
	"fmt"
)

// CacheStats counts cache behaviour for the runtime experiments.
type CacheStats struct {
	// Hits, Misses, and Evictions account budget-driven behaviour:
	// Evictions counts only capacity-pressure LRU drops made to fit a load.
	Hits, Misses, Evictions int
	// QuarantineEvictions counts health-driven drops via Evict — variants
	// whose weights the serving layer stopped trusting after a panic or
	// hang. Kept separate from Evictions so /metricsz distinguishes budget
	// churn from fault quarantine.
	QuarantineEvictions int
	// BytesLoaded is the cumulative weight traffic from storage to RAM.
	BytesLoaded int64
}

// entry is one resident model in the LRU list.
type entry struct {
	name string
	size int64
}

// lruCache is a byte-budgeted LRU of loaded models. Recency order lives in a
// doubly-linked list (front = least recently used) with an index map from
// model name to list element, so touch/ensure are O(1) — the cache sits on
// the per-request hot path of the serving layer.
//
// lruCache is not self-synchronizing: the owning Scheduler's mutex guards
// every call.
type lruCache struct {
	budget int64
	used   int64
	// order lists *entry values from least to most recently used.
	order *list.List
	// index maps a resident model name to its list element.
	index map[string]*list.Element
	stats CacheStats
}

func newLRUCache(budgetBytes int64) *lruCache {
	return &lruCache{
		budget: budgetBytes,
		order:  list.New(),
		index:  map[string]*list.Element{},
	}
}

// touch marks name as most recently used. It must be resident.
func (c *lruCache) touch(name string) {
	el, ok := c.index[name]
	if !ok {
		panic(fmt.Sprintf("sched: touch of non-resident model %q", name))
	}
	c.order.MoveToBack(el)
}

// resident reports whether name is loaded.
func (c *lruCache) resident(name string) bool {
	_, ok := c.index[name]
	return ok
}

// ensure makes name resident, evicting LRU entries as needed, and returns
// whether it was a cache hit. Returns an error when the model alone exceeds
// the budget.
func (c *lruCache) ensure(name string, size int64) (hit bool, err error) {
	if c.resident(name) {
		c.stats.Hits++
		c.touch(name)
		return true, nil
	}
	if size > c.budget {
		return false, fmt.Errorf("sched: model %q (%d B) exceeds cache budget (%d B)", name, size, c.budget)
	}
	c.stats.Misses++
	for c.used+size > c.budget {
		front := c.order.Front()
		victim := front.Value.(*entry)
		c.order.Remove(front)
		delete(c.index, victim.name)
		c.used -= victim.size
		c.stats.Evictions++
	}
	c.index[name] = c.order.PushBack(&entry{name: name, size: size})
	c.used += size
	c.stats.BytesLoaded += size
	return false, nil
}

// evict drops name from the cache if resident, reporting whether it was.
// Used to quarantine possibly-corrupt weights after the variant panicked or
// hung: the entry must not stay cached as healthy, so the next ensure is a
// miss that reloads from storage. Counted as a QuarantineEviction, not an
// LRU Eviction.
func (c *lruCache) evict(name string) bool {
	el, ok := c.index[name]
	if !ok {
		return false
	}
	victim := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.index, name)
	c.used -= victim.size
	c.stats.QuarantineEvictions++
	return true
}

// Resident returns the names of loaded models, LRU first.
func (c *lruCache) Resident() []string {
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).name)
	}
	return out
}
