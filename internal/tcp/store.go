package tcp

import (
	"unsafe"

	"unison/internal/packet"
)

// This file is the memory backbone of the transport at scale: connection
// records live in per-host chunked arenas addressed by small integer
// indices, and the FlowID → index mapping is a flat open-addressing table.
// Compared to the previous map[FlowID]*conn per host, a flow costs one
// dense record slot (recycled when the endpoint finishes) and one 12-byte
// table slot instead of a permanently retained heap object plus a map
// entry — the difference between thousands and millions of concurrent
// flows fitting in one box.
//
// Determinism: every arena and table belongs to one host and is only
// touched from that host's events, whose order is the same under every
// kernel. The free list is LIFO, so slot assignment after recycling is a
// pure function of the host's event history — cross-kernel fingerprints
// cannot diverge through allocation order.

// arenaChunkBits sizes arena chunks. Arenas are per host and a host
// rarely runs more than a handful of concurrent connections (recycling
// keeps live counts near the concurrency, not the flow count), so chunks
// are small — 4 records — and a host that never exceeds 4 live conns
// pays exactly one chunk. Chunks are fixed-size and never move once
// allocated, so *conn pointers captured by in-flight timer closures stay
// valid across arena growth; only recycling may hand the record to a new
// flow, whose timer recycle() leaves knowing of the old one's event.
const arenaChunkBits = 2
const arenaChunkSize = 1 << arenaChunkBits

// connArena allocates conn records for one host.
type connArena struct {
	chunks [][]conn
	free   []int32 // LIFO recycled slots
	next   int32   // bump cursor: first never-used slot
	live   int32
	peak   int32
}

// alloc returns a reset record and its stable index.
func (a *connArena) alloc() (*conn, int32) {
	var idx int32
	if n := len(a.free); n > 0 {
		idx = a.free[n-1]
		a.free = a.free[:n-1]
		c := a.at(idx)
		c.recycle()
		a.bump()
		return c, idx
	}
	idx = a.next
	a.next++
	if int(idx>>arenaChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]conn, arenaChunkSize))
	}
	a.bump()
	c := a.at(idx)
	c.idx = idx
	return c, idx
}

func (a *connArena) bump() {
	a.live++
	if a.live > a.peak {
		a.peak = a.live
	}
}

// at resolves an index to its record. Indices are stable for the lifetime
// of the arena; the record content is valid until release.
func (a *connArena) at(idx int32) *conn {
	return &a.chunks[idx>>arenaChunkBits][idx&(arenaChunkSize-1)]
}

// release recycles the slot. The caller must drop every *conn for idx; a
// pending timer event finds the timer disarmed.
func (a *connArena) release(idx int32) {
	a.free = append(a.free, idx)
	a.live--
}

func (a *connArena) memBytes() int64 {
	return int64(len(a.chunks))*int64(arenaChunkSize)*int64(unsafe.Sizeof(conn{})) +
		int64(cap(a.free))*4
}

// flowTab maps FlowID → arena index with open addressing and linear
// probing over flat slices: no per-entry heap objects, deletion by
// backward shift (no tombstones), power-of-two capacity.
type flowTab struct {
	keys []uint64 // FlowID+1; 0 marks an empty slot
	vals []int32
	n    int
}

const flowTabMinCap = 16

func flowTabHash(k uint64, mask uint32) uint32 {
	// Fibonacci multiplicative hash; flow IDs are dense integers, so a
	// single multiply spreads them well across the table.
	return uint32((k*0x9E3779B97F4A7C15)>>32) & mask
}

func (t *flowTab) get(id packet.FlowID) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint32(len(t.keys) - 1)
	k := uint64(id) + 1
	for i := flowTabHash(k, mask); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *flowTab) put(id packet.FlowID, v int32) {
	if len(t.keys) == 0 || t.n*3 >= len(t.keys)*2 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	k := uint64(id) + 1
	for i := flowTabHash(k, mask); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case 0:
			t.keys[i] = k
			t.vals[i] = v
			t.n++
			return
		case k:
			t.vals[i] = v
			return
		}
	}
}

// delete removes id, backward-shifting the probe chain so lookups never
// need tombstones.
func (t *flowTab) delete(id packet.FlowID) {
	if t.n == 0 {
		return
	}
	mask := uint32(len(t.keys) - 1)
	k := uint64(id) + 1
	i := flowTabHash(k, mask)
	for {
		switch t.keys[i] {
		case 0:
			return // not present
		case k:
			goto found
		}
		i = (i + 1) & mask
	}
found:
	t.n--
	// Backward shift: close the hole by moving chain members whose home
	// slot lies at or before the hole.
	j := i
	for {
		j = (j + 1) & mask
		kj := t.keys[j]
		if kj == 0 {
			break
		}
		home := flowTabHash(kj, mask)
		// Move kj into the hole unless it sits between hole and its home
		// (cyclic comparison).
		if (j-home)&mask >= (j-i)&mask {
			t.keys[i] = kj
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
}

func (t *flowTab) grow() {
	newCap := flowTabMinCap
	if len(t.keys) > 0 {
		newCap = len(t.keys) * 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, newCap)
	t.vals = make([]int32, newCap)
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.put(packet.FlowID(k-1), oldVals[i])
		}
	}
}

func (t *flowTab) memBytes() int64 { return int64(len(t.keys)) * 12 }

// hostConns is the per-host connection store. The zero value (non-host
// nodes) is inert.
type hostConns struct {
	arena  connArena
	tab    flowTab
	timers timerCounts
}

// MemStats is the transport's self-reported memory footprint, held to a
// budget by experiments.TestScaleMemoryBudget.
type MemStats struct {
	Hosts       int   `json:"hosts"`        // host nodes with connection stores
	LiveConns   int   `json:"live_conns"`   // currently allocated records
	PeakConns   int   `json:"peak_conns"`   // high-water mark of live records
	FreeSlots   int   `json:"free_slots"`   // recycled records awaiting reuse
	ArenaChunks int   `json:"arena_chunks"` // allocated chunks across all hosts
	ArenaBytes  int64 `json:"arena_bytes"`  // bytes held by arena chunks + free lists
	TableBytes  int64 `json:"table_bytes"`  // bytes held by flow lookup tables
}

// Mem reports the stack's connection-store footprint.
func (s *Stack) Mem() MemStats {
	var m MemStats
	for i := range s.hosts {
		h := &s.hosts[i]
		if h.arena.next == 0 && len(h.arena.chunks) == 0 && h.tab.n == 0 && len(h.tab.keys) == 0 {
			continue
		}
		m.Hosts++
		m.LiveConns += int(h.arena.live)
		m.PeakConns += int(h.arena.peak)
		m.FreeSlots += len(h.arena.free)
		m.ArenaChunks += len(h.arena.chunks)
		m.ArenaBytes += h.arena.memBytes()
		m.TableBytes += h.tab.memBytes()
	}
	return m
}
