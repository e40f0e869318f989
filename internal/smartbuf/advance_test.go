package smartbuf

import (
	"testing"
)

// advance_test.go pins the bulk advance (AdvanceFeed/AdvanceFill)
// against the per-cycle schedule it replaces: a reference buffer is
// driven one clock at a time exactly as the system's memory stage and
// feed stage drive it (push one bus word while CanAccept, then pop when
// ready), a second buffer takes the same clocks in bulk wherever the
// predictors prove them, and after every step both must agree on the
// counters, the ring's live span, WindowReady, CanAccept and — for
// every bulk-fed window — the taps the reference popped, which the bulk
// path reads straight from the streamed array at WindowBase + tap
// offset + i*SweepStride.

// fuzzGeometry turns fuzz parameters into a valid 1-D or 2-D window
// configuration: extent, stride, bus width, sweep length and array
// slack all vary, and the tap set always spans the window.
func fuzzGeometry(twoD bool, e0, e1, s0, s1, bus, shape uint8) Config {
	b := 1 + int(bus)%8
	if !twoD {
		e := 1 + int(e0)%6
		s := 1 + int(s0)%5
		w := 1 + int(e1)%24
		o := int(shape) % 3
		var taps [][]int64
		for i := 0; i < e; i++ {
			if i == 0 || i == e-1 || (s1>>uint(i%8))&1 == 1 {
				taps = append(taps, []int64{int64(i)})
			}
		}
		return Config{
			Extent: []int{e}, MinOff: []int{0}, Stride: []int{s},
			ArrayDims: []int{o + (w-1)*s + e + int(shape/3)%4},
			Origin:    []int{o}, Windows: []int{w},
			ElemBits: 16, BusElems: b, Taps: taps,
		}
	}
	eh, ew := 1+int(e0)%3, 1+int(e1)%3
	sh, sw := 1+int(s0)%2, 1+int(s1)%3
	wh, ww := 1+int(shape)%4, 1+int(shape/4)%6
	var taps [][]int64
	for r := 0; r < eh; r++ {
		for c := 0; c < ew; c++ {
			taps = append(taps, []int64{int64(r), int64(c)})
		}
	}
	return Config{
		Extent: []int{eh, ew}, MinOff: []int{0, 0}, Stride: []int{sh, sw},
		ArrayDims: []int{(wh-1)*sh + eh + int(shape/24)%2, (ww-1)*sw + ew + int(shape/48)%3},
		Origin:    []int{0, 0}, Windows: []int{wh, ww},
		ElemBits: 16, BusElems: b, Taps: taps,
	}
}

// sameBuffers fails unless the two buffers are indistinguishable: the
// same counters and window walk, the same backpressure and readiness
// signals, and a live ring span holding exactly the streamed elements.
func sameBuffers(t *testing.T, step int, ref, blk *Buffer, src []int64) {
	t.Helper()
	if ref.count != blk.count || ref.WindowBase() != blk.WindowBase() ||
		ref.popped[0] != blk.popped[0] || ref.popped[len(ref.popped)-1] != blk.popped[len(blk.popped)-1] {
		t.Fatalf("step %d: counters diverge: ref count %d base %d popped %v, bulk count %d base %d popped %v",
			step, ref.count, ref.WindowBase(), ref.popped, blk.count, blk.WindowBase(), blk.popped)
	}
	if ref.WindowReady() != blk.WindowReady() || ref.CanAccept() != blk.CanAccept() || ref.Done() != blk.Done() {
		t.Fatalf("step %d: signals diverge: ready %v/%v canAccept %v/%v done %v/%v",
			step, ref.WindowReady(), blk.WindowReady(), ref.CanAccept(), blk.CanAccept(), ref.Done(), blk.Done())
	}
	for _, b := range []*Buffer{ref, blk} {
		if vs := VerifyRingSource(b, src); len(vs) != 0 {
			t.Fatalf("step %d: %v", step, vs[0])
		}
	}
}

// FuzzStreakAdvance interleaves bulk advances with per-cycle pushes and
// pops under a fuzzed geometry and schedule.
func FuzzStreakAdvance(f *testing.F) {
	f.Add(false, uint8(4), uint8(15), uint8(0), uint8(0), uint8(0), uint8(0), []byte{1, 1, 1, 0, 2, 1})
	f.Add(false, uint8(7), uint8(23), uint8(7), uint8(0), uint8(7), uint8(5), []byte{1, 0, 1, 3, 1, 2, 1})
	f.Add(false, uint8(2), uint8(9), uint8(3), uint8(255), uint8(1), uint8(11), []byte{2, 1, 0, 1, 1})
	f.Add(true, uint8(4), uint8(4), uint8(1), uint8(1), uint8(3), uint8(95), []byte{1, 2, 1, 2, 1, 2})
	f.Add(true, uint8(2), uint8(1), uint8(0), uint8(2), uint8(0), uint8(23), []byte{0, 1, 3, 1, 2})
	f.Fuzz(func(t *testing.T, twoD bool, e0, e1, s0, s1, bus, shape uint8, sched []byte) {
		cfg := fuzzGeometry(twoD, e0, e1, s0, s1, bus, shape)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated an invalid geometry: %v\n%+v", err, cfg)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blk, _ := New(cfg)
		total := 1
		for _, d := range cfg.ArrayDims {
			total *= d
		}
		src := make([]int64, total)
		for i := range src {
			src[i] = int64(i)*2654435761 ^ int64(e0)<<40 ^ int64(shape)<<32
		}
		offs := cfg.TapOffsets()
		stride := cfg.SweepStride()
		// memory runs one clock's memory stage on a buffer exactly as the
		// system's read port does.
		memory := func(b *Buffer) {
			if b.count >= total || !b.CanAccept() {
				return
			}
			if err := b.Push(src[b.count:min(total, b.count+cfg.BusElems)]); err != nil {
				t.Fatal(err)
			}
		}
		refTaps := make([]int64, len(cfg.Taps))
		popRef := func(step, i, base int) {
			if err := ref.PopWindowInto(refTaps); err != nil {
				t.Fatalf("step %d: reference pop %d of a proven streak: %v", step, i, err)
			}
			for ti, off := range offs {
				if got := src[base+off+i*stride]; got != refTaps[ti] {
					t.Fatalf("step %d: streak window %d tap %d: bulk gather %d, popped %d", step, i, ti, got, refTaps[ti])
				}
			}
		}
		for step := 0; !ref.Done(); step++ {
			if step > 8*total+64 {
				t.Fatalf("runaway schedule\n%+v", cfg)
			}
			memory(ref)
			memory(blk)
			op := byte(0)
			if len(sched) > 0 {
				op = sched[step%len(sched)]
			}
			switch ready := ref.WindowReady(); {
			case ready && op%4 != 0:
				// Bulk feed: the proven streak, capped by the schedule.
				k := ref.FeedStreak(1 + int(op/4)%32)
				base := blk.WindowBase()
				if _, err := blk.AdvanceFeed(k, src); err != nil {
					t.Fatalf("step %d: AdvanceFeed(%d) of a proven streak: %v\n%+v", step, k, err, cfg)
				}
				popRef(step, 0, base)
				for i := 1; i < k; i++ {
					memory(ref)
					popRef(step, i, base)
				}
			case ready:
				if err := ref.PopWindowInto(refTaps); err != nil {
					t.Fatal(err)
				}
				if err := blk.PopWindowInto(make([]int64, len(cfg.Taps))); err != nil {
					t.Fatal(err)
				}
			default:
				// Bulk stall: this clock's memory stage ran; the rest of
				// the proven stall (or a schedule-chosen prefix of it)
				// fills without popping.
				m := ref.StallStreak() - 1
				if op%4 == 3 {
					m = min(m, int(op/4)%5)
				}
				blk.AdvanceFill(m, src)
				for i := 0; i < m; i++ {
					memory(ref)
				}
			}
			sameBuffers(t, step, ref, blk, src)
		}
		// Drain: every window popped, the memory stage keeps streaming the
		// elements no window referenced.
		m := 1 + int(shape)%7
		blk.AdvanceFill(m, src)
		for i := 0; i < m; i++ {
			memory(ref)
		}
		sameBuffers(t, -1, ref, blk, src)
		if _, err := blk.AdvanceFeed(1, src); err == nil {
			t.Fatal("AdvanceFeed on a finished window walk succeeded")
		}
	})
}

// TestAdvanceFeedRefusesUnprovenStreak: a streak that crosses the strip
// boundary, or starts on a stalled window, is refused without touching
// the buffer.
func TestAdvanceFeedRefusesUnprovenStreak(t *testing.T) {
	cfg := fuzzGeometry(true, 2, 2, 0, 1, 3, 6) // 3x3 window, 3 strips of 2 windows
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int64, cfg.ArrayDims[0]*cfg.ArrayDims[1])
	if _, err := b.AdvanceFeed(1, src); err == nil {
		t.Fatal("AdvanceFeed on an empty buffer succeeded")
	}
	b.AdvanceFill(b.StallStreak(), src)
	if !b.WindowReady() {
		t.Fatal("window not ready after filling its stall")
	}
	count := b.Fetched()
	if _, err := b.AdvanceFeed(b.stripRemaining()+1, src); err == nil {
		t.Fatal("AdvanceFeed across the strip boundary succeeded")
	}
	if b.Fetched() != count {
		t.Fatal("a refused AdvanceFeed changed the buffer")
	}
}

// TestSupplyClosedForm checks the closed-form push count against its
// definition, cycle by cycle, over every small state — including the
// blocked-at-start and generator-exhausted corners no well-formed
// schedule reaches but the formula must still get right.
func TestSupplyClosedForm(t *testing.T) {
	b := &Buffer{}
	for bus := 1; bus <= 4; bus++ {
		for capacity := bus; capacity <= bus+6; capacity++ {
			b.cfg.BusElems, b.cap = bus, capacity
			for total := 0; total <= 14; total++ {
				for count := 0; count <= total; count++ {
					for origin := max(0, count-capacity-3); origin <= count+2; origin++ {
						for s := 0; s <= 5; s++ {
							for m := 0; m <= 6; m++ {
								want := count
								for i := 0; i < m; i++ {
									if want < total && want+bus-(origin+i*s) <= capacity {
										want = min(total, want+bus)
									}
								}
								b.count = count
								if got := b.supply(m, origin, s, total); got != want {
									t.Fatalf("bus %d cap %d total %d count %d origin %d stride %d cycles %d: supply %d, want %d",
										bus, capacity, total, count, origin, s, m, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAdvanceFillWrapsRing fetches more elements in one bulk fill than
// the ring holds (a drain streaming a long unreferenced array tail into
// a ring exactly as large as the buffer's capacity): only the last ring
// load of elements may survive, each in its slot, as if pushed one bus
// word at a time.
func TestAdvanceFillWrapsRing(t *testing.T) {
	cfg := Config{
		Extent: []int{2}, MinOff: []int{0}, Stride: []int{1},
		ArrayDims: []int{40}, Origin: []int{0}, Windows: []int{3},
		ElemBits: 16, BusElems: 2, Taps: [][]int64{{0}, {1}},
	}
	ref, _ := New(cfg)
	blk, _ := New(cfg)
	if len(ref.ring) != ref.cap {
		t.Fatalf("geometry no longer sizes the ring at exactly its capacity (%d vs %d)", len(ref.ring), ref.cap)
	}
	src := make([]int64, 40)
	for i := range src {
		src[i] = int64(100 + i)
	}
	memory := func(b *Buffer) {
		if b.count < len(src) && b.CanAccept() {
			b.Push(src[b.count:min(len(src), b.count+cfg.BusElems)])
		}
	}
	taps := make([]int64, 2)
	for !ref.Done() {
		for _, b := range []*Buffer{ref, blk} {
			memory(b)
			if b.WindowReady() {
				b.PopWindowInto(taps)
			}
		}
	}
	if got := blk.AdvanceFill(9, src); got != 18 {
		t.Fatalf("AdvanceFill fetched %d elements, want 18", got)
	}
	for i := 0; i < 9; i++ {
		memory(ref)
	}
	sameBuffers(t, 0, ref, blk, src)
	for i := range ref.ring {
		if ref.ring[i] != blk.ring[i] {
			t.Fatalf("ring slot %d: bulk %d, per-cycle %d", i, blk.ring[i], ref.ring[i])
		}
	}
}
