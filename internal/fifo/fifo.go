// Package fifo provides the one queue shape the simulator's schedulers
// need: first in, first out, popped from the front one element at a time.
//
// The obvious spelling, q = q[1:], has two costs on a hot path. The popped
// element stays reachable from the backing array until the slice is
// regrown, so a dead queue head pins whatever it points at (a pooled
// record, its payload buffer); and the slice loses capacity with every
// pop, so a queue that drains and refills allocates on every refill. Queue
// zeroes each slot as it is vacated and reuses one backing array.
package fifo

// Queue is a FIFO over one reused backing slice. The zero value is an
// empty queue. Not safe for concurrent use.
type Queue[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Peek returns the oldest element without removing it. The queue must not
// be empty.
func (q *Queue[T]) Peek() T { return q.items[q.head] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Full with vacated slots in front: slide down instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the oldest element, zeroing its slot; the
// backing array rewinds once the queue is empty. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
