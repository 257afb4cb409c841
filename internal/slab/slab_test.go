package slab

import "testing"

// TestTakeIsolates: slices taken from one chunk never share an element,
// an append to one leaves its neighbour alone, and chunks are reused
// until they are full.
func TestTakeIsolates(t *testing.T) {
	var s Of[int]
	a := s.Take(3)
	b := s.Take(2)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("len/cap a %d/%d, b %d/%d", len(a), cap(a), len(b), cap(b))
	}
	if &a[:3][2] == &b[0] || &a[0] == &b[0] {
		t.Fatal("a and b overlap")
	}
	a[2], b[0] = 7, 9
	a = append(a, 1)
	if b[0] != 9 || a[2] != 7 {
		t.Fatalf("append to a wrote into b: a %v, b %v", a, b)
	}
	if s.Take(0) != nil {
		t.Error("Take(0) is not nil")
	}
	if got := s.Copy([]int{4, 5}); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("Copy = %v", got)
	}
	big := s.Take(maxChunkBytes + 1)
	if len(big) != maxChunkBytes+1 {
		t.Errorf("Take beyond a chunk: len %d", len(big))
	}
	for _, v := range big {
		if v != 0 {
			t.Fatal("Take returned a non-zero element")
		}
	}
}

// TestTakeAllocatesByChunk: a thousand short slices cost a few chunks.
func TestTakeAllocatesByChunk(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s Of[int]
		for i := 0; i < 1000; i++ {
			s.Take(3)
		}
	})
	if allocs > 12 {
		t.Errorf("%v allocations for 1000 takes, want ≤ 12", allocs)
	}
}
