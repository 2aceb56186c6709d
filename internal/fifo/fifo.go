// Package fifo provides the head-indexed queue the datapath models share:
// descriptor and job queues in the assists, SDRAM port queues, and the
// firmware's frame and continuation queues.
//
// Popping advances a head index instead of reslicing, so a queue that
// drains reuses its backing array and a warm simulation pushes and pops
// without allocating. The array grows only when the queue's live length
// outgrows every earlier peak.
package fifo

// Queue is a first-in first-out queue. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
//
//nic:hotpath
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail. When the backing array is full and at least
// half of it is already popped, the live elements slide to the front
// instead of growing the array.
//
//nic:hotpath
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v) //nic:alloc amortised growth to the queue's peak length
}

// Pop removes and returns the head element. It panics on an empty queue.
//
//nic:hotpath
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// PopTo removes the n oldest elements and appends them to dst, in order.
func (q *Queue[T]) PopTo(dst []T, n int) []T {
	for ; n > 0; n-- {
		dst = append(dst, q.Pop())
	}
	return dst
}

// At returns the i-th queued element, counting from the head.
//
//nic:hotpath
func (q *Queue[T]) At(i int) T { return q.buf[q.head+i] }
