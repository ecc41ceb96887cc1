package main

import "testing"

// TestMatrix runs the differential matrix at the command's defaults, a
// subtest per row: no cell may fail, every row must have checked the search
// family, and every row over a cluster must have refused SPARSE.
func TestMatrix(t *testing.T) {
	m, err := run(defaults)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + m.String())
	for _, r := range m.rows {
		t.Run(r.name, func(t *testing.T) {
			for f, c := range r.cells {
				for _, msg := range c.first {
					t.Errorf("%s: %s", familyNames[f], msg)
				}
			}
			if r.cells[search].checks == 0 {
				t.Error("no search checked")
			}
			if r.refuses && r.cells[sparse].refused == 0 {
				t.Error("no SPARSE refusal checked")
			}
		})
	}
}
