// Package slab hands out many small slices from a few large ones.  A
// compile builds thousands of short lists — a node's register reads, a
// slot op's sources, a row's ops — that all live as long as the compile's
// result does; carving them from shared chunks makes that a handful of
// allocations instead of one per list.
package slab

import "unsafe"

// Chunks double in length from firstChunk elements until they reach
// maxChunkBytes (or 16 elements, whichever is longer), so a small compile
// wastes little of its last chunk, a large one allocates rarely, and what
// the unused end of a chunk holds on to stays small whatever T is.
const (
	firstChunk    = 16
	maxChunkBytes = 4 << 10
)

// Of is a slab of T.  The zero value is ready to use.  Not safe for
// concurrent use.
type Of[T any] struct {
	chunk []T // the current chunk: len is what has been handed out
	next  int // the length of the chunk after this one
}

// Take returns a zeroed slice of length n whose capacity is also n, so an
// append to it reallocates rather than running into its neighbour.  It
// returns nil for n = 0.
func (s *Of[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	used := len(s.chunk)
	if cap(s.chunk)-used < n {
		var zero T
		size := max(n, s.next, firstChunk)
		s.next = min(2*size, max(16, maxChunkBytes/int(unsafe.Sizeof(zero))))
		s.chunk, used = make([]T, 0, size), 0
	}
	s.chunk = s.chunk[:used+n]
	return s.chunk[used : used+n : used+n]
}

// Copy returns a slab copy of v (nil when v is empty).
func (s *Of[T]) Copy(v []T) []T {
	out := s.Take(len(v))
	copy(out, v)
	return out
}
