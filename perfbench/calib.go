package main

import (
	"sort"
	"time"
)

// The end-to-end times are reported at a fixed reference host speed. On a
// shared 2-vCPU host the same code ran up to 1.6 times slower from one run
// to the next as the host's CPU boost and its other tenants came and went,
// and a median over one run does not even that out. So the measuring
// goroutine also runs a fixed kernel of the benchmark's own, never program
// code, between operations throughout the run, and those times are
// multiplied by refKernel over the kernel's median time in that run: the
// time the run would have read on a host running the kernel as fast as the
// reference host did. The raw figures are printed beside them (README.md,
// "Host speed").

// refKernel is about the kernel's median time on the reference host, a
// 2-vCPU Intel Xeon (family 6, model 207) KVM guest with go1.24.
const refKernel = 20 * time.Millisecond

// kernelEvery is the least time between two kernel samples. After an
// operation longer than kernelEvery the probe samples once per kernelEvery
// it took, up to catchUp times, so every stretch of the run weighs in the
// median about as much as it lasted, and the kernel costs about 4% of the
// run.
const (
	kernelEvery = 500 * time.Millisecond
	catchUp     = 3
)

// kernelSorts is how many times one sample sorts the keys. Over eight runs
// a single sort of about 2 ms cut the spread of offline-suite's pass time
// from 0.089 to 0.071 of its median; ten sorts back to back, which run at
// the sustained speed the program's long operations see, cut it to 0.046.
const kernelSorts = 10

// kernelKeys is what the kernel sorts: fixed pseudo-random keys, 128 KiB,
// within the reference host's L2 cache. A variant that also streamed a
// 16 MiB array read 2.4 to 4.3 ms from one sample to the next as that
// array moved in and out of the shared L3 cache, and tracked the host's
// speed worse.
var kernelKeys = func() []float64 {
	x := make([]float64, 16384)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(s >> 11)
	}
	return x
}()

// speedProbe samples the kernel between the operations of one run.
type speedProbe struct {
	work    []float64
	samples []time.Duration
	sampled time.Time // when the last sample ended
	// spent is the time the samples took, which no measured time includes.
	spent time.Duration
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{work: make([]float64, len(kernelKeys)), sampled: time.Now()}
}

// tick samples the kernel once per kernelEvery since the last sample, up to
// catchUp times. One sample copies and sorts the keys kernelSorts times.
func (p *speedProbe) tick() {
	for n := min(catchUp, int(time.Since(p.sampled)/kernelEvery)); n > 0; n-- {
		start := time.Now()
		for i := 0; i < kernelSorts; i++ {
			copy(p.work, kernelKeys)
			sort.Float64s(p.work)
		}
		p.sampled = time.Now()
		d := p.sampled.Sub(start)
		p.samples = append(p.samples, d)
		p.spent += d
	}
}

// kernel is the median sample (refKernel before any sample).
func (p *speedProbe) kernel() time.Duration {
	if len(p.samples) == 0 {
		return refKernel
	}
	s := append([]time.Duration(nil), p.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// factor is what a raw time is multiplied by to read at reference speed.
func (p *speedProbe) factor() float64 { return float64(refKernel) / float64(p.kernel()) }
