package serve

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// The response cache: a bounded LRU of fully-materialised results
// keyed by (endpoint path, canonical query). Each entry carries the
// lake days its computation read and their stamps, taken before the
// first read; it answers only while every one of those stamps is
// unchanged. A lake mutation moves the stamps of the days it touched
// and nothing else, so a checkpoint of the hot day leaves every answer
// over sealed days cached. A stale entry is replaced in place by the
// recomputation its miss triggers.
var (
	mCacheHits      = metrics.GetCounter("serve.cache_hits")
	mCacheMisses    = metrics.GetCounter("serve.cache_misses")
	mCacheEvictions = metrics.GetCounter("serve.cache_evictions")
	mNotModified    = metrics.GetCounter("serve.not_modified")
)

// DefaultCacheBytes bounds the response cache when Options.CacheBytes
// is zero. 64 MiB holds thousands of figure bodies (a five-year figure
// JSON is tens of KiB) while staying irrelevant next to the pipeline's
// own aggregate cache.
const DefaultCacheBytes = 64 << 20

// cacheKey identifies one cacheable response. query is the
// url.Values.Encode() canonical form — sorted by key — so equal
// queries written in different parameter orders share an entry.
type cacheKey struct {
	path  string
	query string
}

// dayReads names the lake days a result read and the stamp each had
// before the first read. A mutation landing mid-computation therefore
// leaves the entry stale on arrival rather than fresh with old bytes.
type dayReads struct {
	days   []time.Time
	stamps []uint64
}

// readDays stamps days for a computation about to read them.
func (s *Server) readDays(days []time.Time) dayReads {
	return dayReads{days: days, stamps: s.p.DayStamps(days)}
}

// current reports whether every day r read still has its stamp.
func (s *Server) current(r dayReads) bool {
	return slices.Equal(s.p.DayStamps(r.days), r.stamps)
}

// cacheEntry is one materialised response plus its strong ETag.
type cacheEntry struct {
	key  cacheKey
	res  *result
	etag string
	size int64
}

// respCache is the LRU. A nil *respCache is a disabled cache: every
// method no-ops, so call sites need no gating.
type respCache struct {
	mu       sync.Mutex
	max      int64 // byte budget over body sizes
	maxEntry int64 // largest single body worth caching
	size     int64
	ll       *list.List // front = most recent; values are *cacheEntry
	items    map[cacheKey]*list.Element
}

// newRespCache sizes a cache; maxBytes <= 0 disables it (returns nil).
func newRespCache(maxBytes int64) *respCache {
	if maxBytes <= 0 {
		return nil
	}
	return &respCache{
		max:      maxBytes,
		maxEntry: maxBytes / 8,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

// get returns the entry for key when current holds for it, promoting
// it to most-recently-used. current reads stamps, so it runs outside
// the lock; an entry evicted meanwhile is still a correct answer.
func (c *respCache) get(key cacheKey, current func(dayReads) bool) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	el := c.items[key]
	c.mu.Unlock()
	if el == nil || !current(el.Value.(*cacheEntry).res.reads) {
		mCacheMisses.Inc()
		return nil
	}
	c.mu.Lock()
	c.ll.MoveToFront(el) // a no-op if el left the list meanwhile
	c.mu.Unlock()
	mCacheHits.Inc()
	return el.Value.(*cacheEntry)
}

// put inserts a materialised response in place of any entry under its
// key, evicting from the LRU tail while over budget. Results that name
// no days read are not cached: nothing could say when they went stale.
// Oversized bodies are not cached either — one uncapped scan must not
// wipe the figure working set.
func (c *respCache) put(key cacheKey, res *result, etag string) {
	if c == nil || len(res.reads.days) == 0 {
		return
	}
	size := int64(len(res.body))
	if size > c.maxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.items[key]; el != nil {
		c.remove(el)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, etag: etag, size: size})
	c.size += size
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.remove(back)
		mCacheEvictions.Inc()
	}
}

// remove drops one entry; the caller holds c.mu.
func (c *respCache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*cacheEntry)
	delete(c.items, ent.key)
	c.size -= ent.size
}

// etagFor derives the strong ETag of a response body from the stamps
// of the days it read and the body's hash: the stamp half — their sum,
// which moves whenever any of them does, since stamps only grow —
// makes a mutation of a read day visible in the tag, the hash makes it
// strong (byte-identical bodies and nothing else compare equal). A
// mutation of a day the response did not read changes neither half.
func etagFor(r dayReads, body []byte) string {
	var sum uint64
	for _, s := range r.stamps {
		sum += s
	}
	h := sha256.Sum256(body)
	return fmt.Sprintf("\"%d-%x\"", sum, h[:12])
}

// etagMatch reports whether an If-None-Match header value matches
// etag. Weak comparison is fine for If-None-Match per RFC 9110 — our
// tags are strong anyway — so a W/ prefix is stripped before
// comparing.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}
