package pool

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/sim"
)

// goldenDeviceRun replays a fixed 64-query mixed batch (all six query
// types, staggered arrivals so cores queue and contend) on one device and
// renders the report plus every job's completion time and fault.
func goldenDeviceRun(t *testing.T, plan *mem.FaultPlan) (report, jobs string) {
	t.Helper()
	c, idx := testIndex(t)
	d := New(DefaultConfig(), idx)
	d.SetFault(plan.InjectorFor(0))
	types := corpus.AllQueryTypes()
	for n := 0; n < 64; n++ {
		q := corpus.SampleQueries(c, types[n%len(types)], 1, int64(100+n))[0]
		if err := d.Submit(q.Expr, sim.Time(n/8)*sim.Microsecond); err != nil {
			t.Fatalf("submit %s: %v", q.Expr, err)
		}
	}
	report = d.Run().String()
	var b strings.Builder
	for _, j := range d.jobs {
		switch {
		case j.Err == nil:
			fmt.Fprintf(&b, "%d ", j.Done)
		case errors.Is(j.Err, mem.ErrTransientRead):
			fmt.Fprintf(&b, "%d!T ", j.Done)
		case errors.Is(j.Err, mem.ErrMediaUncorrectable):
			fmt.Fprintf(&b, "%d!U ", j.Done)
		default:
			fmt.Fprintf(&b, "%d!%v ", j.Done, j.Err)
		}
	}
	return report, b.String()
}

// TestDeviceReportGolden pins the device replay. The strings were captured
// at the commit before execute and its fault-injecting copy were folded into
// one loop; no figure covers pool.Device, so this is the fold's exactness
// proof, with and without an injector.
func TestDeviceReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name         string
		plan         *mem.FaultPlan
		report, jobs string
	}{
		{
			name:   "pristine",
			report: "jobs=64 makespan=0.040ms qps=1588343 latency(mean/p50/p99)=15.7/15.8/33.3us node=12.72GB/s link=7.1% peak-channel=90.7%",
			jobs:   "533593 765780 10026500 2259061 2899061 4542000 4179061 4508436 4984061 5326561 5966561 9545061 6806561 7174686 7411092 7664217 12968561 9884217 9697654 13520686 11922592 11194841 14169061 12468591 13108591 13342028 13753903 13979528 23817091 19808561 16091403 16467653 22410686 18687653 19327653 21741061 19782653 20232653 21172653 21097653 21737653 27532561 23011403 27579653 23985153 24354371 31313561 29220686 26466246 26809839 33491653 29029839 37520746 33291839 36406061 32321714 32961714 33181089 40293561 35027495 35661245 39663089 36610776 36951557 ",
		},
		{
			name:   "faulty",
			plan:   &mem.FaultPlan{Seed: 9, TransientRate: 0.25, UncorrectableRate: 0.02},
			report: "jobs=64 makespan=0.050ms qps=1281479 latency(mean/p50/p99)=20.3/21.0/42.9us node=12.62GB/s link=4.5% peak-channel=98.0% failed=6 avail=0.906",
			jobs:   "533593 765780 9126500!U 1619061 2259061 4542000 4819061 5477811 5953436 6295936 6935936 8215936!U 8415936 8784061 9020467 9273592 13337936!U 11493592 11307029 14761936 13295561 12804216 15024216 15357966 15997966 16231403 16643278 17094528 24686436 21601936 19206403 19582653 24887966 25002653 25642653 27522653 26737653 27187653 27827653 28052653 29332653 31826653!U 30606403 33219653 32220153 32589371 36500153!T 35069371 34061246 34748432 40433153!U 38888432 43643871 41748432 43668432 43460307 44100307 44319682 47868432 47446088 48079838 49942307 49029369 49370150 ",
		},
	} {
		report, jobs := goldenDeviceRun(t, tc.plan)
		if report != tc.report {
			t.Errorf("%s report:\n got %q\nwant %q", tc.name, report, tc.report)
		}
		if jobs != tc.jobs {
			t.Errorf("%s jobs:\n got %q\nwant %q", tc.name, jobs, tc.jobs)
		}
	}
}
