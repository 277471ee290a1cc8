package stridebv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pktclass/internal/ruleset"
)

// The SBV1 image is the format pktclass.StrideBV.WriteImage hands to
// callers: pin it byte for byte. The
// digests are of the images the vector-per-(stage,value) layout wrote for
// these fixed-seed engines (Ne=171: three words per row, a partial tail
// word) before stage memory moved into per-stage blocks.
func TestImageGolden(t *testing.T) {
	golden := map[int]struct {
		size   int
		sha256 string
	}{
		3: {7420, "e093258b39e6a181ccb8389169c4a96e912e8542581e06bdaa41a7001a6566a9"},
		4: {10684, "4dddee33f9fb1b32378f0014b0246bdac54f63622650d800bc850de7ef5de320"},
	}
	for k, want := range golden {
		_, ex := genSet(t, 70, ruleset.FirewallProfile, 91)
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WriteImage(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != want.size || got != want.sha256 {
			t.Fatalf("k=%d: image is %d bytes, sha256 %s; the format pins %d bytes, %s",
				k, buf.Len(), got, want.size, want.sha256)
		}
	}
}
