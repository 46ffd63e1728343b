package rtlil

import "math/bits"

// IDMap is a small open-addressing hash table keyed by dense bit ids
// (Index.ID; keys must not be negative). It is meant for per-query
// tables over a handful of a module's bits: it costs O(entries), not
// O(module), and its probe loop works on two flat slices instead of the
// runtime's map buckets. The zero value is an empty map; it doubles its
// capacity whenever it becomes half full.
type IDMap[V any] struct {
	keys  []int32 // id+1 per slot; 0 marks an empty slot
	vals  []V
	n     int
	shift uint // 32 - log2(len(keys))
}

// NewIDMap returns an empty map with room for hint entries before it
// first grows.
func NewIDMap[V any](hint int) IDMap[V] {
	size := 8
	for size < 2*hint {
		size *= 2
	}
	return IDMap[V]{keys: make([]int32, size), vals: make([]V, size),
		shift: uint(32 - bits.Len(uint(size-1)))}
}

// Len returns the number of entries.
func (m *IDMap[V]) Len() int { return m.n }

// slot returns the slot holding id, or the empty slot where it belongs.
// The table is never full, so the probe ends.
func (m *IDMap[V]) slot(id int32) int {
	mask := len(m.keys) - 1
	i := int(uint32(id) * 0x9E3779B1 >> m.shift) // Fibonacci hashing
	for m.keys[i] != 0 && m.keys[i] != id+1 {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value stored for id.
func (m *IDMap[V]) Get(id int32) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	i := m.slot(id)
	return m.vals[i], m.keys[i] != 0
}

// Set stores v for id.
func (m *IDMap[V]) Set(id int32, v V) {
	if 2*(m.n+1) > len(m.keys) {
		m.grow()
	}
	i := m.slot(id)
	if m.keys[i] == 0 {
		m.keys[i] = id + 1
		m.n++
	}
	m.vals[i] = v
}

func (m *IDMap[V]) grow() {
	old, oldVals := m.keys, m.vals
	*m = NewIDMap[V](len(old))
	for i, k := range old {
		if k != 0 {
			j := m.slot(k - 1)
			m.keys[j], m.vals[j] = k, oldVals[i]
			m.n++
		}
	}
}
