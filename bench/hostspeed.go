package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The machines the benchmark runs on are shared, and their speed on
// arithmetic-heavy code wanders by up to a factor of two over seconds to
// minutes as neighbouring work comes and goes (README.md, "Host speed").
// So every time the benchmark reports is scaled to a reference speed:
// at the start and end of the measured phase, and between measurements
// every refEvery, it times refKernel, fixed arithmetic in this file that
// no change to the aligner can make faster or slower, and multiplies
// each measured duration by refNominal / the run's median kernel time.
const (
	// refNominal defines the reference speed: the one at which
	// refKernel takes 60 ms, about what the baseline host (README.md)
	// gives when nothing competes with it.
	refNominal = 0.06
	// refEvery is how much measured work may pass between two samples.
	refEvery = 3 * time.Second
	// refBurst is how many times a sample runs the kernel back to back;
	// the median of many short timings shrugs off a moment's outlier.
	refBurst = 3
	// refSize and refReps set the kernel's work: refReps products of two
	// refSize×refSize matrices on every processor.
	refSize = 96
	refReps = 100
)

// hostSpeed collects one run's reference-kernel samples.
type hostSpeed struct {
	samples []float64
	last    time.Time
	reps    int
	// mats holds each processor's three matrices, allocated once so
	// that sampling allocates nothing the runs' memory metrics would see.
	mats [][3][]float64
}

func newHostSpeed(opts options) *hostSpeed {
	h := &hostSpeed{reps: refReps, mats: make([][3][]float64, runtime.GOMAXPROCS(0))}
	if opts.smoke {
		// A token kernel: the smoke test checks what is reported, not
		// its scale, and runs under the race detector.
		h.reps = 1
	}
	for i := range h.mats {
		for j := range h.mats[i] {
			h.mats[i][j] = make([]float64, refSize*refSize)
		}
	}
	return h
}

// sample times refBurst runs of refKernel.
func (h *hostSpeed) sample() {
	for i := 0; i < refBurst; i++ {
		t0 := time.Now()
		refKernel(h.mats, h.reps)
		h.last = time.Now()
		h.samples = append(h.samples, h.last.Sub(t0).Seconds())
	}
}

// due reports whether refEvery has passed since the last sample.
func (h *hostSpeed) due() bool { return time.Since(h.last) >= refEvery }

// scale turns a duration measured in this run into one at the reference
// speed; a rate is divided by it.
func (h *hostSpeed) scale() float64 { return refNominal / median(h.samples) }

func (h *hostSpeed) String() string {
	return fmt.Sprintf("host: %d reference samples, median %.1f ms, times scaled by %.3f", len(h.samples), median(h.samples)*1e3, h.scale())
}

// refKernel multiplies refSize×refSize matrices reps times on every
// processor at once, the way the aligner's parallel stages load them.
func refKernel(mats [][3][]float64, reps int) {
	var wg sync.WaitGroup
	for _, m := range mats {
		wg.Add(1)
		go func(a, b, c []float64) {
			defer wg.Done()
			for i := range a {
				a[i], b[i], c[i] = float64(i%7), float64(i%5), 0
			}
			for r := 0; r < reps; r++ {
				for i := 0; i < refSize; i++ {
					for k := 0; k < refSize; k++ {
						aik := a[i*refSize+k]
						row := c[i*refSize : (i+1)*refSize]
						for j, bkj := range b[k*refSize : (k+1)*refSize] {
							row[j] += aik * bkj
						}
					}
				}
			}
		}(m[0], m[1], m[2])
	}
	wg.Wait()
}
