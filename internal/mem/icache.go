package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/fifo"
	"repro/internal/stats"
)

// ICache models one core's private instruction cache: 8 KB, 2-way set
// associative, 32-byte lines, LRU replacement in the paper's configuration.
// Instructions are read-only and single-writer, so no coherence is needed.
//
// Tag and valid state are packed into one word per line (tag | icValid),
// stored in a flat array indexed set*ways+way, so a probe is a single
// comparison per way; the power-of-two geometries every studied configuration
// uses resolve the set index with shifts and masks. The cache is probed on
// every instruction of every core, so the divisions, nested slices, and
// separate valid-bit loads all showed up in profiles.
type ICache struct {
	lineBytes int
	sets      int
	ways      int
	lines     []uint64 // sets*ways, flattened; uint64(tag)|icValid, 0 = invalid
	lruWay    []int    // for 2-way: the way to evict next

	pow2      bool
	lineShift uint
	setShift  uint
	setMask   uint32

	Hits   stats.Counter
	Misses stats.Counter
}

// icValid marks a packed cache line valid; it sits above any 32-bit tag, so a
// zero entry can never match a lookup.
const icValid = uint64(1) << 32

// NewICache creates an instruction cache of the given total size, ways, and
// line size in bytes.
func NewICache(size, ways, lineBytes int) *ICache {
	if size <= 0 || ways <= 0 || lineBytes <= 0 || size%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("mem: bad icache geometry: size=%d ways=%d line=%d", size, ways, lineBytes))
	}
	sets := size / (ways * lineBytes)
	c := &ICache{
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		lines:     make([]uint64, sets*ways),
		lruWay:    make([]int, sets),
	}
	if lineBytes&(lineBytes-1) == 0 && sets&(sets-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros(uint(lineBytes)))
		c.setShift = uint(bits.TrailingZeros(uint(sets)))
		c.setMask = uint32(sets - 1)
	}
	return c
}

// Lookup probes the cache for the line holding pc and updates LRU state on a
// hit. It does not fill on a miss; call Fill once the line arrives.
func (c *ICache) Lookup(pc uint32) bool {
	set, tag := c.index(pc)
	want := uint64(tag) | icValid
	if c.ways == 2 {
		base := set * 2
		if c.lines[base] == want {
			c.Hits.Inc()
			c.lruWay[set] = 1
			return true
		}
		if c.lines[base+1] == want {
			c.Hits.Inc()
			c.lruWay[set] = 0
			return true
		}
		c.Misses.Inc()
		return false
	}
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == want {
			c.Hits.Inc()
			c.touch(set, w)
			return true
		}
	}
	c.Misses.Inc()
	return false
}

// Fill installs the line holding pc, evicting the LRU way.
func (c *ICache) Fill(pc uint32) {
	set, tag := c.index(pc)
	base := set * c.ways
	w := c.lruWay[set]
	// Prefer an invalid way over evicting.
	for i := 0; i < c.ways; i++ {
		if c.lines[base+i]&icValid == 0 {
			w = i
			break
		}
	}
	c.lines[base+w] = uint64(tag) | icValid
	c.touch(set, w)
}

// HitRatio returns hits/(hits+misses).
func (c *ICache) HitRatio() float64 {
	total := c.Hits.Value() + c.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(c.Hits.Value()) / float64(total)
}

func (c *ICache) index(pc uint32) (set int, tag uint32) {
	if c.pow2 {
		line := pc >> c.lineShift
		return int(line & c.setMask), line >> c.setShift
	}
	line := pc / uint32(c.lineBytes)
	return int(line) % c.sets, line / uint32(c.sets)
}

func (c *ICache) touch(set, way int) {
	if c.ways == 2 {
		c.lruWay[set] = 1 - way
		return
	}
	// General pseudo-LRU for other associativities: rotate past the touched
	// way. Exact LRU is unnecessary fidelity for the instruction stream.
	c.lruWay[set] = (way + 1) % c.ways
}

// InstrMemory models the shared 128-bit instruction memory port that fills
// the per-core instruction caches. One fill is serviced at a time; cores wait
// round-robin. A 32-byte line fill occupies the port for accessCy + 2
// transfer cycles (32 B over a 16 B/cycle port).
//
// InstrMemory is a sim.Ticker in the CPU clock domain.
type InstrMemory struct {
	accessCy int
	lineCy   int

	pending  fifo.Queue[fillReq]
	busy     int // cycles remaining on current fill
	current  fillReq
	hasCur   bool
	PortBusy stats.Utilization
	Fills    stats.Counter
}

type fillReq struct {
	core   int
	onDone func()
}

// NewInstrMemory creates the shared instruction memory. accessCy is the
// fixed access latency before the line transfer begins; lineBytes sets the
// number of 16-byte transfer cycles.
func NewInstrMemory(accessCy, lineBytes int) *InstrMemory {
	lineCy := (lineBytes + 15) / 16
	if lineCy == 0 {
		lineCy = 1
	}
	return &InstrMemory{accessCy: accessCy, lineCy: lineCy}
}

// RequestFill enqueues a line fill for a core; onDone is called during the
// tick the fill completes.
func (m *InstrMemory) RequestFill(core int, onDone func()) {
	m.pending.Push(fillReq{core: core, onDone: onDone})
}

// Tick advances the instruction memory port one CPU cycle.
func (m *InstrMemory) Tick(cycle uint64) {
	m.PortBusy.Total.Inc()
	if !m.hasCur && m.pending.Len() > 0 {
		m.current = m.pending.Pop()
		m.hasCur = true
		m.busy = m.accessCy + m.lineCy
	}
	if !m.hasCur {
		return
	}
	// Only the transfer cycles occupy the 128-bit port; the access cycles
	// are internal to the memory array.
	if m.busy <= m.lineCy {
		m.PortBusy.Busy.Inc()
	}
	m.busy--
	if m.busy == 0 {
		done := m.current.onDone
		m.hasCur = false
		m.Fills.Inc()
		if done != nil {
			done()
		}
	}
}
