package main

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Speed calibration.
//
// The box this benchmark runs on shares its last-level cache and memory
// bandwidth with other machines' work, and the load they put on it
// swings over tens of seconds: the same 8-s eu-dense run read between 665
// and 1,128 ms per op within a few minutes, and set-up between 0.9 and
// 1.4 s. No statistic over one run's own ops removes a slowdown that
// covers the whole run. So every timed phase is cut into slices of about
// calibEvery, and between slices, outside the timed phase, a fixed
// kernel that belongs to the benchmark (never to the program) is timed.
// A time measured in a slice is scaled by refCalibMs over the mean of the
// kernel times on either side of it: it then reads as it would on the
// box at the speed where the kernel takes refCalibMs. Over the same
// minutes, scaled by an earlier variant of this kernel, six of eight such
// runs fell within 3% of their median. The raw, unscaled figures are
// printed in the metadata.
const (
	// refCalibMs is a round figure near the kernel's time on the quiet
	// 2-vCPU KVM guest of a Xeon host this benchmark was tuned on; it only
	// sets the scale.
	refCalibMs = 6.5
	// calibEvery is the length of a slice of a timed phase.
	calibEvery = 500 * time.Millisecond
	// calibPasses timed passes follow one untimed warm pass; the fastest
	// is the sample, so a GC cycle the program left running or a
	// preemption inside one pass does not move it.
	calibPasses = 2
)

// calibrator owns the kernel's state, allocated once, so a pass
// allocates nothing and never adds to the program's garbage. The ring
// lives in its own mapping, outside the Go heap: 16 MiB of live heap
// would raise the collector's heap goal and make the program collect
// less often than it does on its own.
type calibrator struct {
	mem  []byte      // the ring's mapping
	ring []uint32    // mem as words: node i's successor is ring[i*calStride]
	at   uint32      // where the next pass goes on along the ring
	m    map[int]int // refilled every pass: hashing and scattered stores
	xs   []int       // re-sorted every pass: branches and streaming access
	keys []int       // the map's keys, fixed
	sink int
}

// The ring is eight times a vCPU's 2 MiB L2, so nearly every step misses
// it whatever physical pages the ring got: with a 4 MiB ring, fresh
// processes on an idle box timed the same pass anywhere from 4.4 to
// 9.4 ms, as their pages happened to fit the L2 better or worse; with
// 16 MiB they agreed within 2%. A pass walks an eighth of it.
const (
	calRing   = 1 << 18 // nodes, one per 64-byte line
	calStride = 64 / 4  // words per node
	calSteps  = calRing / 8
	calKeys   = 8 << 10
	calSort   = 16 << 10
)

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calRing*calStride*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration ring: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		mem:  mem,
		ring: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4),
		m:    make(map[int]int, calKeys),
		xs:   make([]int, calSort),
		keys: make([]int, calKeys),
	}
	perm := rng.Perm(calRing)
	for i, p := range perm {
		c.ring[p*calStride] = uint32(perm[(i+1)%calRing])
	}
	for i := range c.keys {
		c.keys[i] = rng.Int()
	}
	return c, nil
}

// close unmaps the ring.
func (c *calibrator) close() error {
	c.ring = nil
	return syscall.Munmap(c.mem)
}

// pass runs the kernel once: calSteps further along the ring, the map
// refilled and probed, and a fixed sequence sorted.
func (c *calibrator) pass() {
	p := c.at
	for i := 0; i < calSteps; i++ {
		p = c.ring[p*calStride]
	}
	c.at = p
	clear(c.m)
	for i, k := range c.keys {
		c.m[k] = i
	}
	s := 0
	for i := range c.keys {
		s += c.m[c.keys[(i*7919)%calKeys]]
	}
	x := uint64(88172645463325252)
	for i := range c.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.xs[i] = int(x >> 1)
	}
	slices.Sort(c.xs)
	c.sink += s + c.xs[0]
}

// measure returns the kernel's time in milliseconds.
func (c *calibrator) measure() float64 {
	c.pass()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < calibPasses; i++ {
		t0 := time.Now()
		c.pass()
		best = min(best, time.Since(t0))
	}
	return ms(best)
}

// calibrate times the kernel.
func (r *runner) calibrate() float64 {
	v := r.cal.measure()
	r.calSamples = append(r.calSamples, v)
	return v
}

// speedFactor is the factor that brings a time measured between two kernel
// samples to the reference speed.
func speedFactor(before, after float64) float64 { return refCalibMs / ((before + after) / 2) }

// phase is the record of a timed phase cut into calibration slices.
type phase struct {
	lats  []time.Duration // every op's latency, in issue order
	slice []int           // the slice each op ran in
	walls []time.Duration // each slice's wall time, checks taken off
	cals  []float64       // kernel ms: cals[s] before slice s, cals[s+1] after it
}

func (p *phase) add(lat time.Duration, slice int) {
	p.lats = append(p.lats, lat)
	p.slice = append(p.slice, slice)
}

func (p *phase) factor(s int) float64 { return speedFactor(p.cals[s], p.cals[s+1]) }

// wall returns the phase's wall time, raw and scaled, in seconds.
func (p *phase) wall() (raw, scaled float64) {
	for s, w := range p.walls {
		raw += w.Seconds()
		scaled += w.Seconds() * p.factor(s)
	}
	return raw, scaled
}

// latencies returns every op's latency in milliseconds, raw and scaled,
// each ascending.
func (p *phase) latencies() (raw, scaled []float64) {
	raw = make([]float64, len(p.lats))
	scaled = make([]float64, len(p.lats))
	for i, l := range p.lats {
		raw[i] = ms(l)
		scaled[i] = ms(l) * p.factor(p.slice[i])
	}
	slices.Sort(raw)
	slices.Sort(scaled)
	return raw, scaled
}
