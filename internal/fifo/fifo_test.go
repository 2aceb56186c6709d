package fifo

import "testing"

func TestQueueOrderAcrossSlideAndGrowth(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the queue never drains: the head walks
	// forward, the live elements slide to the front, and the array grows.
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("pop %d = %d, want %d", want, got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
		if q.Len() > 0 && q.At(0) != want {
			t.Fatalf("At(0) = %d, want %d", q.At(0), want)
		}
	}
	for _, got := range q.PopTo(nil, q.Len()) {
		if got != want {
			t.Fatalf("drain pop = %d, want %d", got, want)
		}
		want++
	}
	if q.Len() != 0 {
		t.Fatalf("Len after draining = %d", q.Len())
	}
	if want != next {
		t.Fatalf("popped %d of %d pushes", want, next)
	}
}

func TestWarmQueueAllocsPinned(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	cycle := func() {
		for i := 0; i < 16; i++ {
			q.Push(v)
		}
		for i := 0; i < 12; i++ {
			q.Pop()
		}
		for i := 0; i < 16; i++ {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("a warm push/pop cycle allocates %v objects, want 0", got)
	}
}
