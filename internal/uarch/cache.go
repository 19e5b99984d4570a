package uarch

import (
	"math/bits"

	"dejavuzz/internal/mem"
)

// mshr is a miss status holding register: it tracks an in-flight refill.
// Liveness semantics follow the paper's LFB example: once readyAt passes,
// the MSHR goes invalid but the line-fill buffer keeps its (now dead) data.
type mshr struct {
	valid   bool
	addr    uint64 // line-aligned
	readyAt int
}

// lfbEntry is one line-fill buffer slot paired with an MSHR.
type lfbEntry struct {
	addr  uint64
	data  []uint64
	taint []uint64
	used  bool
}

// Cache is a set-associative, taint-shadowed cache with MSHRs and a line
// fill buffer. Fill state (tags) persists across pipeline squashes — this is
// the classic transient side channel the fuzzer probes.
type Cache struct {
	Name string
	cfg  CacheConfig

	tags  [][]uint64
	valid [][]bool
	lru   [][]int
	data  [][][]uint64
	dataT [][][]uint64
	tagT  [][]uint64 // control taint: which line's *presence* is secret-dependent

	// lineBits is each line's tainted-bit total over tagT and dataT, kept by
	// setTagT/setDataT for the running census of tainted lines.
	lineBits [][]int
	census   taintCount

	mshrs []mshr
	lfb   []lfbEntry

	space *mem.Space

	// fetchBusyUntil models the B4 mechanism for the icache: an in-flight
	// refill occupies the fetch port even if the requesting fetch squashes.
	fetchBusyUntil int

	Accesses int
	Misses   int
}

// NewCache builds a cache over the backing space.
func NewCache(name string, cfg CacheConfig, space *mem.Space) *Cache {
	c := &Cache{Name: name, cfg: cfg, space: space}
	words := cfg.LineBytes / 8
	c.tags = make([][]uint64, cfg.Sets)
	c.valid = make([][]bool, cfg.Sets)
	c.lru = make([][]int, cfg.Sets)
	c.data = make([][][]uint64, cfg.Sets)
	c.dataT = make([][][]uint64, cfg.Sets)
	c.tagT = make([][]uint64, cfg.Sets)
	c.lineBits = make([][]int, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		c.lineBits[s] = make([]int, cfg.Ways)
		c.tags[s] = make([]uint64, cfg.Ways)
		c.valid[s] = make([]bool, cfg.Ways)
		c.lru[s] = make([]int, cfg.Ways)
		c.tagT[s] = make([]uint64, cfg.Ways)
		c.data[s] = make([][]uint64, cfg.Ways)
		c.dataT[s] = make([][]uint64, cfg.Ways)
		for w := 0; w < cfg.Ways; w++ {
			c.data[s][w] = make([]uint64, words)
			c.dataT[s][w] = make([]uint64, words)
		}
	}
	c.mshrs = make([]mshr, cfg.MSHRs)
	c.lfb = make([]lfbEntry, cfg.MSHRs)
	for i := range c.lfb {
		c.lfb[i].data = make([]uint64, words)
		c.lfb[i].taint = make([]uint64, words)
	}
	return c
}

// Reusable reports whether the cache's allocations fit a configuration and
// backing space, i.e. whether Reset can stand in for NewCache(name, cfg, space).
func (c *Cache) Reusable(cfg CacheConfig, space *mem.Space) bool {
	return c.cfg == cfg && c.space == space
}

// Reset returns the cache to its construction-time state in place: all
// lines invalidated, LRU ages, taint shadows, MSHRs, line-fill buffers and
// statistics zeroed. After Reset the cache is indistinguishable from a
// freshly built one over the same configuration and space.
func (c *Cache) Reset() {
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = 0
			c.valid[s][w] = false
			c.lru[s][w] = 0
			c.tagT[s][w] = 0
			c.lineBits[s][w] = 0
			data, dataT := c.data[s][w], c.dataT[s][w]
			for i := range data {
				data[i] = 0
				dataT[i] = 0
			}
		}
	}
	for i := range c.mshrs {
		c.mshrs[i] = mshr{}
	}
	for i := range c.lfb {
		e := &c.lfb[i]
		e.addr = 0
		e.used = false
		for j := range e.data {
			e.data[j] = 0
			e.taint[j] = 0
		}
	}
	c.census = taintCount{}
	c.fetchBusyUntil = 0
	c.Accesses = 0
	c.Misses = 0
}

// setTagT and setDataT write a line's shadow words, keeping the census of
// tainted lines current.
func (c *Cache) setTagT(set, way int, t uint64) {
	c.census.setWord(&c.lineBits[set][way], c.tagT[set][way], t)
	c.tagT[set][way] = t
}

func (c *Cache) setDataT(set, way, i int, t uint64) {
	c.census.setWord(&c.lineBits[set][way], c.dataT[set][way][i], t)
	c.dataT[set][way][i] = t
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }
func (c *Cache) setOf(addr uint64) int {
	return int(addr / uint64(c.cfg.LineBytes) % uint64(c.cfg.Sets))
}
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineBytes) / uint64(c.cfg.Sets)
}

// AccessResult reports the outcome of a cache access.
type AccessResult struct {
	Latency int
	Hit     bool
	Set     int
	Way     int
}

func (c *Cache) findWay(set int, tag uint64) int {
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return w
		}
	}
	return -1
}

func (c *Cache) touch(set, way int) {
	for w := 0; w < c.cfg.Ways; w++ {
		c.lru[set][w]++
	}
	c.lru[set][way] = 0
}

func (c *Cache) victim(set int) int {
	vw, age := 0, -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[set][w] {
			return w
		}
		if c.lru[set][w] > age {
			age = c.lru[set][w]
			vw = w
		}
	}
	return vw
}

// Probe reports hit/miss without side effects (used by timing receivers).
func (c *Cache) Probe(addr uint64) bool {
	return c.findWay(c.setOf(addr), c.tagOf(addr)) >= 0
}

// Access performs a (possibly filling) cache access at the given cycle and
// returns latency and placement. The fill reads backing memory through the
// raw (permission-free) path: refills are a microarchitectural action.
func (c *Cache) Access(addr uint64, cycle int) AccessResult {
	c.Accesses++
	line := c.lineAddr(addr)
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.touch(set, w)
		return AccessResult{Latency: c.cfg.HitLat, Hit: true, Set: set, Way: w}
	}
	c.Misses++
	// Merge with an in-flight MSHR for the same line.
	lat := c.cfg.MissLat
	mi := -1
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.valid && cycle >= m.readyAt {
			m.valid = false // retire completed refill; LFB data goes stale
		}
		if m.valid && m.addr == line {
			if rem := m.readyAt - cycle; rem > 0 {
				lat = rem
			} else {
				lat = c.cfg.HitLat
			}
			mi = i
			break
		}
	}
	if mi < 0 {
		// Allocate an MSHR; stall for the oldest if all busy.
		free := -1
		oldest := 0
		for i := range c.mshrs {
			if !c.mshrs[i].valid {
				free = i
				break
			}
			if c.mshrs[i].readyAt < c.mshrs[oldest].readyAt {
				oldest = i
			}
		}
		if free < 0 {
			stall := c.mshrs[oldest].readyAt - cycle
			if stall < 0 {
				stall = 0
			}
			lat += stall
			c.mshrs[oldest].valid = false
			free = oldest
		}
		c.mshrs[free] = mshr{valid: true, addr: line, readyAt: cycle + lat}
		mi = free
	}
	// Perform the fill now (timing is charged via lat); stage through LFB.
	way := c.victim(set)
	c.tags[set][way] = tag
	c.valid[set][way] = true
	c.setTagT(set, way, 0)
	c.touch(set, way)
	words := c.cfg.LineBytes / 8
	for i := 0; i < words; i++ {
		v, t := c.space.Read64(line + uint64(i*8))
		c.data[set][way][i] = v
		c.setDataT(set, way, i, t)
		c.lfb[mi].data[i] = v
		c.lfb[mi].taint[i] = t
	}
	c.lfb[mi].addr = line
	c.lfb[mi].used = true
	return AccessResult{Latency: lat, Hit: false, Set: set, Way: way}
}

// TaintTag marks a line's presence as secret-dependent (applied by the
// control-taint fabric when a tainted address selected the fill).
func (c *Cache) TaintTag(set, way int) {
	if set < len(c.tagT) && way < len(c.tagT[set]) {
		c.setTagT(set, way, ^uint64(0))
	}
}

// Read64 returns the cached word and taint at addr (must be resident).
func (c *Cache) Read64(addr uint64) (v, t uint64) {
	set := c.setOf(addr)
	if w := c.findWay(set, c.tagOf(addr)); w >= 0 {
		idx := int(addr%uint64(c.cfg.LineBytes)) / 8
		return c.data[set][w][idx], c.dataT[set][w][idx]
	}
	return c.space.Read64(addr)
}

// Write64 updates a resident line (write-through to backing memory).
func (c *Cache) Write64(addr uint64, v, t uint64) {
	set := c.setOf(addr)
	if w := c.findWay(set, c.tagOf(addr)); w >= 0 {
		idx := int(addr%uint64(c.cfg.LineBytes)) / 8
		c.data[set][w][idx] = v
		c.setDataT(set, w, idx, t)
	}
	c.space.Write64(addr, v, t)
}

// FlushAll invalidates every line (the swap runtime's icache flush).
// Taint shadows are cleared with the data: flushed lines hold nothing.
func (c *Cache) FlushAll() {
	for s := range c.valid {
		for w := range c.valid[s] {
			c.valid[s][w] = false
			c.tagT[s][w] = 0
			c.lineBits[s][w] = 0
			for i := range c.dataT[s][w] {
				c.dataT[s][w][i] = 0
			}
		}
	}
	c.census = taintCount{}
}

// MSHRLive reports whether any MSHR tracking the LFB slot i is still valid.
func (c *Cache) MSHRLive(i int, cycle int) bool {
	return c.mshrs[i].valid && cycle < c.mshrs[i].readyAt
}

// Census counts tainted cache lines (tag or data taint) and their tainted
// bits; line-fill-buffer slots are counted separately by LFBCensus.
func (c *Cache) Census() (tainted, bitCount int) { return c.census.elems, c.census.bits }

// censusScan is Census recounted from the shadow state.
func (c *Cache) censusScan() taintCount {
	var n taintCount
	for s := range c.tags {
		for w := range c.tags[s] {
			elemBits := bits.OnesCount64(c.tagT[s][w])
			for _, t := range c.dataT[s][w] {
				elemBits += bits.OnesCount64(t)
			}
			n.addElem(elemBits)
		}
	}
	return n
}

// LFBCensus counts tainted line-fill-buffer slots; live reports only those
// whose MSHR is still valid (the liveness-annotated view).
func (c *Cache) LFBCensus(cycle int) (tainted, live int) {
	for i := range c.lfb {
		if !c.lfb[i].used {
			continue
		}
		any := false
		for _, t := range c.lfb[i].taint {
			if t != 0 {
				any = true
				break
			}
		}
		if any {
			tainted++
			if c.MSHRLive(i, cycle) {
				live++
			}
		}
	}
	return tainted, live
}

// TaintedLines returns (set, way) pairs whose tag is control-tainted: the
// secret-indexed fills that a prime+probe receiver could observe.
type LinePos struct{ Set, Way int }

// TaintedLinePositions lists lines with tag taint and whether each is valid.
func (c *Cache) TaintedLinePositions() []LinePos {
	var out []LinePos
	if c.census.elems == 0 {
		return out // a tag-tainted line is a tainted line
	}
	for s := range c.tagT {
		for w := range c.tagT[s] {
			if c.tagT[s][w] != 0 && c.valid[s][w] {
				out = append(out, LinePos{Set: s, Way: w})
			}
		}
	}
	return out
}
