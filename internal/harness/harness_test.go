package harness

import (
	"strings"
	"testing"

	"boss/internal/corpus"
	"boss/internal/mem"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{Scale: 0.008, PerType: 3, K: 30, Seed: 7}
}

func tinySetup(t testing.TB) *Setup {
	t.Helper()
	return NewSetup(corpus.CCNewsLike(0.008), tinyConfig())
}

func TestAvgIsCachedAndDeterministic(t *testing.T) {
	s := tinySetup(t)
	a := s.Avg(BOSS, corpus.Q3)
	b := s.Avg(BOSS, corpus.Q3)
	if a != b {
		t.Fatal("Avg should return the cached pointer")
	}
	s2 := NewSetup(corpus.CCNewsLike(0.008), tinyConfig())
	c := s2.Avg(BOSS, corpus.Q3)
	if a.SeqReadBytes != c.SeqReadBytes || a.ComputeTime != c.ComputeTime {
		t.Fatal("identical setups should yield identical metrics")
	}
}

func TestQPSOrderingHoldsOnUnions(t *testing.T) {
	// The central claim at 8 cores: BOSS > IIU > 0 and BOSS > Lucene on
	// union-heavy types.
	s := tinySetup(t)
	for _, qt := range []corpus.QueryType{corpus.Q3, corpus.Q5} {
		lucene := s.QPS(Lucene, qt, 8, "scm")
		boss := s.QPS(BOSS, qt, 8, "scm")
		if boss <= lucene {
			t.Fatalf("%s: BOSS (%f qps) should beat Lucene (%f qps) at 8 cores", qt, boss, lucene)
		}
	}
}

func TestIIUSaturatesBeforeBOSS(t *testing.T) {
	// IIU hits its bandwidth ceiling with fewer cores than BOSS (Fig 9).
	s := tinySetup(t)
	qt := corpus.Q3
	iiuGain := s.QPS(IIU, qt, 8, "scm") / s.QPS(IIU, qt, 1, "scm")
	bossGain := s.QPS(BOSS, qt, 8, "scm") / s.QPS(BOSS, qt, 1, "scm")
	if bossGain <= iiuGain {
		t.Fatalf("BOSS core scaling (%.2fx) should exceed IIU's (%.2fx)", bossGain, iiuGain)
	}
}

func TestSpeedupNormalization(t *testing.T) {
	s := tinySetup(t)
	if got := s.Speedup(Lucene, corpus.Q1, 8, "scm"); got < 0.99 || got > 1.01 {
		t.Fatalf("Lucene-8c speedup over itself = %v, want 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := geomean([]float64{0, 4}); g != 4 {
		t.Fatalf("geomean skipping zero = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"wide-cell", "1"}},
		Notes:  []string{"hello"},
	}
	out := tab.String()
	for _, want := range []string{"== x: demo ==", "long-header", "wide-cell", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"fig3", "table1", "table2", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "table3", "fig17", "headline",
		"ablation-et", "ablation-pipeline", "ablation-topk", "ablation-hybrid",
		"scaleout", "ablation-baseline"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("%d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Fatalf("Find(%s) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted unknown id")
	}
}

// TestAllExperimentsRun exercises every experiment end to end on a tiny
// workload, checking each produces non-empty well-formed tables.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	ctx := NewContext(tinyConfig())
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(ctx)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %s has no rows", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %s: row width %d != header width %d",
							tab.ID, len(row), len(tab.Header))
					}
				}
			}
		})
	}
}

func TestFig15BOSSHasNoInterTraffic(t *testing.T) {
	s := tinySetup(t)
	for _, qt := range []corpus.QueryType{corpus.Q4, corpus.Q6} {
		m := s.Avg(BOSS, qt)
		if m.CatAcc[mem.CatStoreInter] != 0 {
			t.Fatalf("%s: BOSS shows ST Inter accesses", qt)
		}
	}
}

func TestDeviceFor(t *testing.T) {
	if deviceFor(Lucene, "scm") != mem.HostSCM() {
		t.Fatal("Lucene on SCM should use the host SCM config")
	}
	if deviceFor(Lucene, "dram") != mem.HostDRAM() {
		t.Fatal("Lucene on DRAM should use the host DRAM config")
	}
	if deviceFor(BOSS, "scm") != mem.SCM() || deviceFor(IIU, "dram") != mem.DRAM() {
		t.Fatal("accelerators should use pool device configs")
	}
}
