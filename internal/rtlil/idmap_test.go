package rtlil

import (
	"math/rand"
	"testing"
)

// TestIDMapMatchesMap drives IDMap and a Go map through the same random
// inserts, overwrites and lookups, from the zero value and from sized
// tables, across several doublings.
func TestIDMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var m IDMap[int32]
		if trial%2 == 1 {
			m = NewIDMap[int32](rng.Intn(40))
		}
		ref := map[int32]int32{}
		span := int32(1 + rng.Intn(1<<uint(rng.Intn(20))))
		for op := 0; op < 400; op++ {
			id := rng.Int31n(span)
			if rng.Intn(2) == 0 {
				v := rng.Int31()
				m.Set(id, v)
				ref[id] = v
			}
			got, ok := m.Get(id)
			want, wok := ref[id]
			if ok != wok || got != want {
				t.Fatalf("trial %d: Get(%d) = %d,%v, want %d,%v", trial, id, got, ok, want, wok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("trial %d: Len %d, want %d", trial, m.Len(), len(ref))
		}
		for id, want := range ref {
			if got, ok := m.Get(id); !ok || got != want {
				t.Fatalf("trial %d: after growth Get(%d) = %d,%v, want %d", trial, id, got, ok, want)
			}
		}
	}
}
