package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Key identifies one optimization result. Its fields must already be
// canonical (order-invariant hash, normalized script), so that equal
// logical requests produce equal keys; see the package comment.
type Key struct {
	// Netlist is the canonical content hash of the submitted design.
	Netlist string
	// Flow is the normalized flow script (opt.Flow.Canonical).
	Flow string
	// Options encodes the request-level options that change the cached
	// payload (e.g. "timings=true"). Options that provably do not — the
	// worker budget — must stay out.
	Options string
}

// ID collapses the key into the cache's address: a hex SHA-256 over the
// length-prefixed fields (so field boundaries cannot be forged).
func (k Key) ID() string {
	h := sha256.New()
	for _, f := range []string{k.Netlist, k.Flow, k.Options} {
		fmt.Fprintf(h, "%d:%s", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModuleKey identifies one per-module optimization result in the
// module-granular tier used by design-mode sharding: where Key
// addresses a whole-design payload, ModuleKey addresses the payload of
// a single module, so a resubmitted design with one edited module
// re-optimizes only that module and refills the rest from cache. Fields
// must be canonical, exactly like Key's.
type ModuleKey struct {
	// Module is the canonical content hash of the one module
	// (rtlil.CanonicalHash).
	Module string
	// Flow is the normalized flow script (opt.Flow.Canonical).
	Flow string
	// Options encodes the request-level options that change the cached
	// payload; the worker budget, and with it the module split, must
	// stay out (results are bit-identical for every value).
	Options string
}

// ID collapses the module key into the cache's address. The hash is
// domain-separated from Key.ID by a fixed leading field, so a module
// entry and a design entry can never collide even for crafted inputs.
func (k ModuleKey) ID() string {
	h := sha256.New()
	for _, f := range []string{"module", k.Module, k.Flow, k.Options} {
		fmt.Fprintf(h, "%d:%s", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Entries and Bytes describe the current memory tier.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes is the configured memory-tier bound.
	MaxBytes int64 `json:"max_bytes"`
	// Hits counts memory-tier hits, DiskHits disk-tier refills and
	// Misses lookups that found nothing in either tier.
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// DiskBad counts disk-tier entries dropped because they were
	// corrupt or truncated (each such read is served as a miss).
	DiskBad uint64 `json:"disk_bad"`
	// RemoteHits counts remote-tier refills, RemoteErrors remote
	// lookups or stores that failed (each failed lookup is served as a
	// miss; each failed store is dropped — the fail-soft contract the
	// disk tier set).
	RemoteHits   uint64 `json:"remote_hits,omitempty"`
	RemoteErrors uint64 `json:"remote_errors,omitempty"`
	// Puts counts values stored (Put and PutLocal, so local computes
	// and peer pushes both): with Hits+Misses it gives operators the
	// cache's full operation mix.
	Puts uint64 `json:"puts"`
	// Coalesced counts Do callers that waited on an identical in-flight
	// computation instead of running their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts memory-tier LRU evictions.
	Evictions uint64 `json:"evictions"`
}

// DefaultMaxBytes bounds the memory tier when New is given no limit.
const DefaultMaxBytes = 256 << 20

// ErrComputePanicked is returned to coalesced Do waiters whose leader's
// compute function panicked instead of returning.
var ErrComputePanicked = errors.New("cache: computation panicked")

// Cache is a tiered content-addressed cache — memory LRU, optional
// disk tier, optional shared remote tier; see the package comment.
type Cache struct {
	maxBytes int64
	dir      string // "" = memory only

	mu      sync.Mutex
	remote  Remote // nil = no remote tier
	byID    map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	stats   Stats
	flights map[string]*flight
}

// entry is one memory-tier value.
type entry struct {
	id  string
	val []byte
}

// flight is one in-progress Do computation awaited by coalesced callers.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// New builds a cache with the given memory bound (<= 0 means
// DefaultMaxBytes) and optional disk tier directory ("" disables it).
// The directory is created if needed.
func New(maxBytes int64, dir string) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxBytes: maxBytes,
		dir:      dir,
		byID:     map[string]*list.Element{},
		lru:      list.New(),
		flights:  map[string]*flight{},
	}
	if err := c.initDisk(); err != nil {
		return nil, err
	}
	return c, nil
}

// Get returns the value stored under id, consulting the memory tier
// first, refilling it from the disk tier on a memory miss, and asking
// the shared remote tier (when attached) last. A remote refill lands in
// both local tiers so the next lookup is local.
func (c *Cache) Get(id string) ([]byte, bool) {
	if val, ok := c.Probe(id); ok {
		return val, true
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Probe is Get without counting a miss: a hit is counted in its tier,
// a miss in nothing. It serves callers that answer a miss by falling
// back to Do, whose own lookup then counts it, so one request never
// counts two misses.
func (c *Cache) Probe(id string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()

	if val, ok := c.readDisk(id); ok {
		c.mu.Lock()
		c.stats.DiskHits++
		c.insert(id, val)
		c.mu.Unlock()
		return val, true
	}

	if r := c.getRemote(); r != nil {
		val, ok, err := r.Get(id)
		switch {
		case err != nil:
			c.mu.Lock()
			c.stats.RemoteErrors++
			c.mu.Unlock()
		case ok:
			c.mu.Lock()
			c.stats.RemoteHits++
			c.insert(id, val)
			c.mu.Unlock()
			c.writeDisk(id, val)
			return val, true
		}
	}
	return nil, false
}

// Put stores the value under id in every tier: memory, disk and — when
// attached — the shared remote tier (best effort, like the disk
// write). The caller must not mutate val afterwards.
func (c *Cache) Put(id string, val []byte) {
	c.PutLocal(id, val)
	if r := c.getRemote(); r != nil {
		if err := r.Put(id, val); err != nil {
			c.mu.Lock()
			c.stats.RemoteErrors++
			c.mu.Unlock()
		}
	}
}

// GetLocal consults only the local tiers (memory, then disk), without
// touching the remote tier or the hit/miss counters. The cache peer
// endpoint serves through it: peers must see a replica's own entries,
// not recurse into its remote tier, and peer traffic must not skew the
// replica's request-path statistics.
func (c *Cache) GetLocal(id string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.lru.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	if val, ok := c.readDisk(id); ok {
		c.mu.Lock()
		c.insert(id, val)
		c.mu.Unlock()
		return val, true
	}
	return nil, false
}

// PutLocal stores the value in the local tiers only. The cache peer
// endpoint stores through it, so a pushed entry is never re-pushed to
// this replica's own remote tier (no echo loops between peers).
func (c *Cache) PutLocal(id string, val []byte) {
	c.mu.Lock()
	c.stats.Puts++
	c.insert(id, val)
	c.mu.Unlock()
	c.writeDisk(id, val)
}

// Delete removes the entry from both tiers. Callers use it to evict an
// entry whose payload turned out to be undecodable, so the next lookup
// recomputes instead of serving the same corrupt bytes again.
func (c *Cache) Delete(id string) {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.byID, id)
		c.bytes -= int64(len(e.val))
	}
	c.mu.Unlock()
	c.removeDisk(id)
}

// insert adds or refreshes a memory-tier entry and evicts LRU entries
// until the byte bound holds. Values larger than the whole bound are
// not kept in memory (the disk tier still serves them). Caller holds mu.
func (c *Cache) insert(id string, val []byte) {
	if el, ok := c.byID[id]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.lru.MoveToFront(el)
	} else if int64(len(val)) <= c.maxBytes {
		c.byID[id] = c.lru.PushFront(&entry{id: id, val: val})
		c.bytes += int64(len(val))
	}
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.byID, e.id)
		c.bytes -= int64(len(e.val))
		c.stats.Evictions++
	}
}

// Do returns the cached value for id, computing and storing it with fn
// on a miss. Concurrent calls for the same id are coalesced: one runs
// fn, the rest wait and share its result. hit reports whether the value
// came from the cache or a coalesced computation rather than this
// caller's own fn. A failed fn caches nothing and its error reaches
// every coalesced caller.
func (c *Cache) Do(id string, fn func() ([]byte, error)) (val []byte, hit bool, err error) {
	if val, ok := c.Get(id); ok {
		return val, true, nil
	}
	c.mu.Lock()
	if fl, ok := c.flights[id]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, true, fl.err
		}
		return fl.val, true, nil
	}
	// Double-check under the lock: a flight that completed between the
	// Get above and Lock has been removed from flights, but its Put has
	// already landed in the memory tier.
	if el, ok := c.byID[id]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[id] = fl
	c.mu.Unlock()

	// Cleanup must survive a panicking fn: the flight entry would
	// otherwise leak and every later Do for this key would block on
	// done forever. Waiters of a panicked flight see ErrComputePanicked
	// (fl.err's initial value); the panic itself propagates to this
	// caller's recover machinery.
	fl.err = ErrComputePanicked
	defer func() {
		c.mu.Lock()
		delete(c.flights, id)
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	if fl.err == nil {
		c.Put(id, fl.val)
	}
	return fl.val, false, fl.err
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}
