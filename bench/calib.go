package main

import "time"

// The host's speed varies: on the reference box everything in a run —
// deployment construction, CPU per op, service time — moves together by up
// to 25% from one minute to the next, with nothing but the hypervisor's
// other tenants changing (README, "Steadiness"). The benchmark therefore
// times a fixed reference computation alongside the measured work, at the
// same moments and reduced by the same statistic, and reports the gated
// time metrics relative to it: a measured time t becomes
// t * calibNominal / (the reference's time under the same conditions).
//
// The reference is code of the benchmark's own, not of the program under
// test, so it is the same on a parent commit and on a change. One sample is
// about 100 us on one goroutine: short enough that, like a request's
// fastest replay, a sample's fastest replay falls between the hypervisor's
// steal bursts. (Millisecond samples, and samples forked over two
// goroutines to mimic a shard fan-out, were tried: with steal at 0.3 their
// own spread, 0.3-0.4 of the median over ten runs, swamped what they were
// meant to correct.)

// calibNominalUs is the reference computation's time on the quiet
// reference box. It only fixes the unit: normalised times read as
// "microseconds on the reference box".
const calibNominalUs = 100.0

// calibTable is the reference computation's working set: 4 MiB, larger
// than the reference box's L2, like the serving path's decoded blocks.
var calibTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = uint32(x >> 40)
	}
	return t
}()

// calibSink keeps the reference computation's result alive.
var calibSink uint64

// calibWork is the fixed reference computation: a mix of dependent
// arithmetic, random reads over the table and short sequential runs with a
// data-dependent branch — the shapes of posting decode and set operations.
func calibWork() {
	x, sum := uint64(88172645463325252), uint64(0)
	mask := uint64(len(calibTable) - 1)
	for i := 0; i < 330; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		base := (x >> 24) & mask &^ 31
		for _, v := range calibTable[base : base+32] {
			if v&1 == 0 {
				sum += uint64(v)
			} else {
				sum ^= uint64(v) << 1
			}
		}
	}
	calibSink += sum
}

// setupNominalUs is calibNominalUs for calibMeanUs: back to back, with its
// table still in cache, the reference computation takes about 55 us on the
// quiet reference box rather than the 100 us it takes between requests.
const setupNominalUs = 55.0

// setupCalibSamples is how many reference samples bracket each side of a
// deployment construction.
const setupCalibSamples = 160

// calibMeanUs times n reference samples and returns their mean wall time:
// the average host speed over a stretch, as setup_s (a whole-second wall
// time) needs it, rather than the floor the replayed phases use.
func calibMeanUs(n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		calibWork()
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}
