package pool

import (
	"fmt"
	"strings"
	"testing"

	"boss/internal/corpus"
	"boss/internal/sim"
)

// goldenDeviceRun replays a fixed 64-query mixed batch (all six query
// types, staggered arrivals so cores queue and contend) on one device and
// renders the report plus every job's completion time.
func goldenDeviceRun(t *testing.T) (report, jobs string) {
	t.Helper()
	c, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
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
		fmt.Fprintf(&b, "%d ", j.Done)
	}
	return report, b.String()
}

// TestDeviceReportGolden pins the device replay. The strings were captured
// at the commit before execute and its fault-injecting copy were folded into
// one loop, and held unedited when the replay's own fault model was deleted;
// no figure covers pool.Device, so this is the replay's exactness proof.
func TestDeviceReportGolden(t *testing.T) {
	const (
		wantReport = "jobs=64 makespan=0.040ms qps=1588343 latency(mean/p50/p99)=15.7/15.8/33.3us node=12.72GB/s link=7.1% peak-channel=90.7%"
		wantJobs   = "533593 765780 10026500 2259061 2899061 4542000 4179061 4508436 4984061 5326561 5966561 9545061 6806561 7174686 7411092 7664217 12968561 9884217 9697654 13520686 11922592 11194841 14169061 12468591 13108591 13342028 13753903 13979528 23817091 19808561 16091403 16467653 22410686 18687653 19327653 21741061 19782653 20232653 21172653 21097653 21737653 27532561 23011403 27579653 23985153 24354371 31313561 29220686 26466246 26809839 33491653 29029839 37520746 33291839 36406061 32321714 32961714 33181089 40293561 35027495 35661245 39663089 36610776 36951557 "
	)
	report, jobs := goldenDeviceRun(t)
	if report != wantReport {
		t.Errorf("report:\n got %q\nwant %q", report, wantReport)
	}
	if jobs != wantJobs {
		t.Errorf("jobs:\n got %q\nwant %q", jobs, wantJobs)
	}
}
