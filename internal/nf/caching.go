package nf

import (
	"crypto/sha256"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Cache models Table 2's caching NF (Nginx): it observes requests
// toward origin servers and maintains a content cache keyed by
// (destination, destination port, request digest). Per its profile it
// reads the destination address, destination port, and payload — it
// never modifies packets, which is what lets the orchestrator
// parallelize it freely.
//
// The cache is content-keyed, not flow-keyed, and bounded by its
// capacity, so it stays off flowtab: the entries sit by value in a ring
// of capacity slots in insertion order, the oldest of which a miss at
// capacity replaces, and a map finds a key's slot.
type Cache struct {
	index  map[cacheKey]int32 // key -> its slot in ring
	ring   []cacheSlot        // FIFO; len grows to cap, then wraps
	oldest int                // slot of the oldest entry, once full
	hits   uint64
	misses uint64
}

type cacheSlot struct {
	key cacheKey
	CacheEntry
}

type cacheKey struct {
	dst    [4]byte
	port   uint16
	digest [8]byte
}

// CacheEntry records one cached object.
type CacheEntry struct {
	Hits uint64
	Size int
}

// NewCache creates a cache with the given entry capacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache{
		index: make(map[cacheKey]int32, capacity),
		ring:  make([]cacheSlot, 0, capacity),
	}
}

// Name implements NF.
func (c *Cache) Name() string { return nfa.NFCaching }

// Profile implements NF.
func (c *Cache) Profile() nfa.Profile { return profileFor(nfa.NFCaching) }

// Process looks the request up and records a hit or inserts an entry.
func (c *Cache) Process(p *packet.Packet) Verdict {
	if err := p.Parse(); err != nil {
		return Pass
	}
	payload := p.Payload()
	if len(payload) == 0 {
		return Pass
	}
	sum := sha256.Sum256(payload)
	key := cacheKey{dst: p.DstIP().As4(), port: p.DstPort()}
	copy(key.digest[:], sum[:8])

	if i, ok := c.index[key]; ok {
		c.ring[i].Hits++
		c.hits++
		return Pass
	}
	c.misses++
	slot := cacheSlot{key, CacheEntry{Size: len(payload)}}
	if len(c.ring) < cap(c.ring) {
		c.index[key] = int32(len(c.ring))
		c.ring = append(c.ring, slot)
		return Pass
	}
	delete(c.index, c.ring[c.oldest].key)
	c.index[key] = int32(c.oldest)
	c.ring[c.oldest] = slot
	c.oldest = (c.oldest + 1) % len(c.ring)
	return Pass
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Len returns the number of cached objects.
func (c *Cache) Len() int { return len(c.ring) }
