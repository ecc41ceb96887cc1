package mem

import "testing"

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{SCM(), DRAM(), HostSCM(), HostDRAM()} {
		if cfg.Channels <= 0 || cfg.SeqReadGBs <= 0 || cfg.WriteGBs <= 0 {
			t.Errorf("config %s has zero fields: %+v", cfg.Name, cfg)
		}
		if cfg.RandReadGBs > cfg.SeqReadGBs {
			t.Errorf("config %s: random faster than sequential", cfg.Name)
		}
	}
	if SCM().SeqReadGBs != 25.6 || SCM().RandReadGBs != 6.6 || SCM().WriteGBs != 9.2 {
		t.Error("SCM preset does not match Table I")
	}
	if DRAM().SeqReadGBs != 85.2 {
		t.Error("DRAM preset does not match Figure 16 text")
	}
	if HostDRAM().SeqReadGBs != 140.76 {
		t.Error("host DRAM preset does not match Table I")
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	if len(cats) != 5 || cats[0] != CatLoadList || cats[4] != CatStoreResult {
		t.Fatalf("categories = %v", cats)
	}
}
