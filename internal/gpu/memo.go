package gpu

import (
	"math"
	"sync"
)

// A sweep repeats the cap solve: the rows of a policy or threshold sweep
// run the same prompt shapes on the same devices under the same clock
// ceilings and limits, so most solves in a process have run before, though
// often in another row. Each distinct Spec value gets one table of solved
// ratios, shared by every Device of that spec in the process and keyed on
// the float64 bits of every other value throttleRatioFor reads. A hit
// returns the float64 the solve returned for the same input bits, so what
// the table holds never changes an output; a miss or an eviction only
// costs the solve.

const (
	// throttleSetBits and throttleWays size one spec's table: 2,048 sets
	// of 4 ways, 8,192 solves in 0.75 MiB.
	throttleSetBits = 11
	throttleWays    = 4
	// throttleChunkBits sets make one allocation: 32 sets of 384 bytes,
	// 12 KiB. The table grows a chunk at a time as solves land in it, so
	// the first throttled phases, which run while a row is built, do not
	// pay for the whole table.
	throttleChunkBits = 5
)

// throttleKey is the float64 bits of a solve's inputs: the curve's folded
// peak FLOPS, occupancy and HBM time; the phase's FLOPs, tensor fraction,
// comm and overhead seconds; the device's power and performance variation;
// the clock-ceiling ratio and the power limit. The power at the ceiling
// follows from these and the spec. Bits, not values, so ±0 and NaNs never
// alias. No solve has the zero key: its ceiling ratio is positive.
type throttleKey [11]uint64

// set returns the key's set index: the top bits of a multiply-xorshift
// hash over its words.
func (k *throttleKey) set() int {
	var h uint64
	for _, w := range k {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return int(h >> (64 - throttleSetBits))
}

type throttleWay struct {
	key   throttleKey
	ratio float64
}

// throttleSet holds its ways newest first. An empty way has the zero key.
type throttleSet [throttleWays]throttleWay

type throttleChunk [1 << throttleChunkBits]throttleSet

// throttleMemo is one spec's table. mu guards chunks and their sets:
// parallel sweeps share the table, and a lookup holds the lock for a few
// compares.
type throttleMemo struct {
	mu     sync.Mutex
	chunks [1 << (throttleSetBits - throttleChunkBits)]*throttleChunk
}

// throttleMemos holds the table of every Spec value a throttled phase has
// run on in this process, tables[i] for specs[i]. A device looks its table
// up once, at its first throttled phase, so a process that never
// throttles allocates none.
var throttleMemos struct {
	sync.Mutex
	specs  []Spec
	tables []*throttleMemo
}

// throttleMemoFor returns the table for spec's value, creating it on first
// use.
func throttleMemoFor(spec *Spec) *throttleMemo {
	throttleMemos.Lock()
	defer throttleMemos.Unlock()
	for i := range throttleMemos.specs {
		if throttleMemos.specs[i] == *spec {
			return throttleMemos.tables[i]
		}
	}
	m := new(throttleMemo)
	throttleMemos.specs = append(throttleMemos.specs, *spec)
	throttleMemos.tables = append(throttleMemos.tables, m)
	return m
}

// at returns set i, allocating its chunk if grow is set, or nil if the
// chunk holds no solve yet. The caller holds mu.
func (m *throttleMemo) at(i int, grow bool) *throttleSet {
	c := m.chunks[i>>throttleChunkBits]
	if c == nil {
		if !grow {
			return nil
		}
		c = new(throttleChunk)
		m.chunks[i>>throttleChunkBits] = c
	}
	return &c[i&(1<<throttleChunkBits-1)]
}

func (m *throttleMemo) get(i int, k *throttleKey) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.at(i, false); s != nil {
		for j := range s {
			if s[j].key == *k {
				return s[j].ratio, true
			}
		}
	}
	return 0, false
}

// put stores a solved ratio as the newest way of set i, dropping its
// oldest. A key another device stored since the caller's miss is left
// alone.
func (m *throttleMemo) put(i int, k *throttleKey, ratio float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.at(i, true)
	for j := range s {
		if s[j].key == *k {
			return
		}
	}
	copy(s[1:], s[:throttleWays-1])
	s[0] = throttleWay{key: *k, ratio: ratio}
}

// throttledRatio returns throttleRatioFor(c, hi, pHi, limit), where pHi
// is the curve's power at hi, from the spec's table when a solve in this
// process has already had the same inputs.
func (d *Device) throttledRatio(c *curve, hi, pHi, limit float64) float64 {
	if d.memo == nil {
		d.memo = throttleMemoFor(&d.spec)
	}
	k := d.throttleKey(c, hi, limit)
	i := k.set()
	if r, ok := d.memo.get(i, &k); ok {
		return r
	}
	r := d.throttleRatioFor(c, hi, pHi, limit)
	d.memo.put(i, &k, r)
	return r
}

// throttleKey returns the key of the curve's solve at ceiling ratio hi
// under limit.
func (d *Device) throttleKey(c *curve, hi, limit float64) throttleKey {
	p := c.p
	return throttleKey{
		math.Float64bits(c.flops), math.Float64bits(c.occ), math.Float64bits(c.tm),
		math.Float64bits(p.FLOPs), math.Float64bits(p.TensorFrac),
		math.Float64bits(p.CommSeconds), math.Float64bits(p.OverheadSeconds),
		math.Float64bits(d.powerVar), math.Float64bits(d.perfVar),
		math.Float64bits(hi), math.Float64bits(limit),
	}
}
