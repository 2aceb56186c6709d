package cpu

import (
	"fmt"
	"testing"
)

// queueWork installs a NextWork on core i that hands out streams in order.
func (r *rig) queueWork(i int, streams ...*Stream) {
	r.cores[i].NextWork = func() *Stream {
		if len(streams) == 0 {
			return nil
		}
		s := streams[0]
		streams = streams[1:]
		return s
	}
}

// recycleLog records OnDone and Recycle calls in the order they happen.
type recycleLog struct{ events []string }

func (l *recycleLog) stream(name string, ops []Op) *Stream {
	return &Stream{Name: name, CodeLen: 64, Ops: ops,
		OnDone: func() { l.events = append(l.events, "done "+name) }}
}

func (l *recycleLog) recycle(s *Stream) { l.events = append(l.events, "recycle "+s.Name) }

func (l *recycleLog) count(ev string) int {
	n := 0
	for _, e := range l.events {
		if e == ev {
			n++
		}
	}
	return n
}

// TestRecycleFiresOnceAfterOnDone: every stream that completes normally is
// handed back exactly once, right after its OnDone, whichever op kind ends
// it — ALU, a buffered store, a load, a lock sequence's unlock, an RMW, or
// trailing hazard cycles.
func TestRecycleFiresOnceAfterOnDone(t *testing.T) {
	r := newRig(1, 4)
	l := &recycleLog{}
	r.cores[0].Recycle = l.recycle
	tails := [][]Op{
		{{Kind: OpALU}},
		{{Kind: OpStore, Addr: 0x100}},
		{{Kind: OpLoad, Addr: 0x104}},
		{{Kind: OpLock, Addr: 0x200}, {Kind: OpUnlock, Addr: 0x200}},
		{{Kind: OpRMW, Addr: 0x208}},
		{{Kind: OpALU, Hazard: 2}},
	}
	var streams []*Stream
	var want []string
	for i, tail := range tails {
		name := fmt.Sprint("s", i)
		streams = append(streams, l.stream(name, append(alus(3), tail...)))
		want = append(want, "done "+name, "recycle "+name)
	}
	r.queueWork(0, streams...)
	r.run(200)
	if fmt.Sprint(l.events) != fmt.Sprint(want) {
		t.Errorf("events = %v, want %v", l.events, want)
	}
}

// TestRecycleSkipsPreemptedStreams: a stream evicted by Preempt is never
// handed back, since its remainder aliases its ops. The remainder runs to
// completion on the rescuing core and is handed back there; so is the
// one-op stub left when every op had already taken effect.
func TestRecycleSkipsPreemptedStreams(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ops   []Op
		evict func(c *Core) bool // preempt once this holds
		stub  bool
	}{
		{
			name:  "remainder",
			ops:   alus(12),
			evict: func(c *Core) bool { return c.opIdx == 5 && c.state == stFetch },
		},
		{
			name:  "stub",
			ops:   append(alus(4), Op{Kind: OpLoad, Addr: 0x100}),
			evict: func(c *Core) bool { return c.opIdx == 4 && c.state == stWaitMem },
			stub:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(2, 4)
			l := &recycleLog{}
			for _, c := range r.cores {
				c.Recycle = l.recycle
			}
			orig := l.stream("orig", tc.ops)
			r.queueWork(0, orig)
			c0 := r.cores[0]
			for i := 0; c0.cur == nil || !tc.evict(c0); i++ {
				if i == 100 {
					t.Fatal("core never reached the preemption point")
				}
				r.tick()
			}
			rem, ok := c0.Preempt()
			if !ok || rem == nil {
				t.Fatalf("Preempt = %v, %v", rem, ok)
			}
			if tc.stub {
				if len(rem.Ops) != 1 || &rem.Ops[0] == &orig.Ops[len(orig.Ops)-1] {
					t.Fatalf("remainder is not the one-op stub: %d ops", len(rem.Ops))
				}
			} else if &rem.Ops[0] != &orig.Ops[5] {
				t.Fatal("remainder does not alias the original's ops")
			}
			rem.Name = "rem"
			r.queueWork(1, rem)
			r.run(100)
			want := []string{"done orig", "recycle rem"}
			if fmt.Sprint(l.events) != fmt.Sprint(want) {
				t.Errorf("events = %v, want %v", l.events, want)
			}
			if n := l.count("recycle orig"); n != 0 {
				t.Errorf("preempted stream recycled %d times", n)
			}
		})
	}
}
