package fpga

import "testing"

func TestCatalogOrderedByCapacity(t *testing.T) {
	cat := Catalog()
	if len(cat) < 4 {
		t.Fatalf("catalog has %d parts", len(cat))
	}
	for i := 1; i < len(cat); i++ {
		if cat[i].Slices < cat[i-1].Slices {
			t.Fatalf("catalog not ascending at %d: %d < %d", i, cat[i].Slices, cat[i-1].Slices)
		}
	}
	for _, d := range cat {
		if d.Name == "" || d.Slices <= 0 || d.BRAMBlocks <= 0 || d.DistRAMBits <= 0 {
			t.Fatalf("incomplete catalog entry %+v", d)
		}
	}
}
