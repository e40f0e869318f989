package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes (neighbours, host steal). Throughput metrics and
// set-up times are therefore CPU-conditioned: right after each
// measurement, while the processor is still warm from it, the run times
// a fixed reference job that shares no code with the repository, and
// scales the measurement by how many times slower than nominal the job
// ran. A slower machine slows both, so the ratio holds still; a faster
// program moves only the workload.

// refTable is the reference job's read-only lookup table.
var refTable = func() []uint64 {
	t := make([]uint64, 4096)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

// referenceWork is the reference job: integer mixing, dependent table
// lookups and a sort of a small buffer. It allocates nothing, so a
// collection running alongside never charges it assist work.
func referenceWork(buf []uint64) uint64 {
	x := uint64(1)
	for i := range buf {
		x = x*6364136223846793005 + refTable[x>>52]
		buf[i] = x ^ refTable[(x>>20)&4095]
	}
	slices.Sort(buf)
	return buf[len(buf)/2]
}

// refBufLen sizes the reference job.
const refBufLen = 2048

// referenceNominal is referenceWork's nominal duration, about its time
// on a 2.1 GHz Xeon: the scale the conditioned metrics are expressed in.
const referenceNominal = 125 * time.Microsecond

// sink keeps the reference job's result live.
var sink atomic.Uint64

// timeReference runs the job once and returns its duration.
func timeReference(buf []uint64) time.Duration {
	t0 := time.Now()
	sink.Store(referenceWork(buf))
	return time.Since(t0)
}

// prober samples the machine's speed between the operations of a
// closed loop: the job runs twice after each operation, so the samples
// of one round of operations cover the whole round. A nil *prober
// samples nothing.
type prober struct {
	buf  []uint64
	slow []float64
}

func newProber() *prober { return &prober{buf: make([]uint64, refBufLen)} }

func (p *prober) sample() {
	if p == nil {
		return
	}
	for range 2 {
		p.slow = append(p.slow, float64(timeReference(p.buf))/float64(referenceNominal))
	}
}

// take returns the median slowdown of the samples since the last take
// and drops them.
func (p *prober) take() float64 {
	s := median(p.slow)
	p.slow = p.slow[:0]
	return s
}

// probeReps is how many times each conditioning probe runs the job.
const probeReps = 15

// slowdown runs the job reps times on this goroutine and returns how
// many times slower than nominal its median run was: the factor a
// measured rate is multiplied by (and a measured time divided by).
func slowdown(reps int) float64 {
	buf := make([]uint64, refBufLen)
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(timeReference(buf))
	}
	return median(ds) / float64(referenceNominal)
}

// sampler times the reference job every samplePeriod on its own
// goroutine while a workload runs, so the machine's state is known over
// any interval of the run.
type sampler struct {
	mu   sync.Mutex
	at   []time.Time
	slow []float64
	stop chan struct{}
	done chan struct{}
}

const samplePeriod = 5 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := make([]uint64, refBufLen)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			d := timeReference(buf)
			s.mu.Lock()
			s.at = append(s.at, time.Now())
			s.slow = append(s.slow, float64(d)/float64(referenceNominal))
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// over returns the median slowdown of the samples taken between a and b.
func (s *sampler) over(a, b time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, _ := slices.BinarySearchFunc(s.at, a, time.Time.Compare)
	hi, _ := slices.BinarySearchFunc(s.at, b, time.Time.Compare)
	if hi > lo {
		return median(s.slow[lo:hi])
	}
	return 1
}
