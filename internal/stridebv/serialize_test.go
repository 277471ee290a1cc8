package stridebv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func TestImageRoundTrip(t *testing.T) {
	for _, k := range []int{3, 4} {
		rs, ex := genSet(t, 70, ruleset.FirewallProfile, 91)
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WriteImage(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadImage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Stride() != k || back.Stages() != e.Stages() ||
			back.NumEntries() != e.NumEntries() || back.NumRules() != e.NumRules() {
			t.Fatalf("k=%d: geometry lost", k)
		}
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 0.8, Seed: 92})
		for _, h := range trace {
			if back.Classify(h) != e.Classify(h) {
				t.Fatalf("k=%d: loaded engine diverges on %s", k, h)
			}
			a, b := back.MultiMatch(h), e.MultiMatch(h)
			if len(a) != len(b) {
				t.Fatalf("k=%d: MultiMatch diverges", k)
			}
		}
	}
}

// The SBV1 image is a format other builds read: pin it byte for byte. The
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
		// Loading and re-writing reproduces the same bytes.
		back, err := ReadImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.WriteImage(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("k=%d: image changed across a load/write round trip", k)
		}
	}
}

func TestImageUpdateAfterLoad(t *testing.T) {
	_, ex := genSet(t, 32, ruleset.PrefixOnly, 93)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded engine accepts incremental updates.
	if err := back.UpdateEntry(3, ex.Entries[10]); err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateEntry(3, ex.Entries[10]); err != nil {
		t.Fatal(err)
	}
	rs2 := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.PrefixOnly, Seed: 93, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs2, ruleset.TraceConfig{Count: 200, MatchFraction: 0.7, Seed: 94})
	for _, h := range trace {
		if back.Classify(h) != e.Classify(h) {
			t.Fatalf("post-update divergence on %s", h)
		}
	}
}

func TestImageErrors(t *testing.T) {
	_, ex := genSet(t, 16, ruleset.PrefixOnly, 95)
	e, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadImage(bytes.NewReader(good[:10])); err == nil {
		t.Fatal("accepted short header")
	}
	bad := append([]byte{}, good...)
	copy(bad, "XXXX")
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}
	bad = append([]byte{}, good...)
	bad[4] = 99 // stride
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad stride")
	}
	bad = append([]byte{}, good...)
	bad[6] = 1 // stages mismatch
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted wrong stage count")
	}
	if _, err := ReadImage(bytes.NewReader(good[:len(good)-4])); err == nil {
		t.Fatal("accepted truncated body")
	}
	// Parent out of range.
	bad = append([]byte{}, good...)
	bad[16] = 0xFF
	bad[17] = 0xFF
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted out-of-range parent")
	}
	// Tail bit beyond ne (ne=16+: find last word of first vector).
	bad = append([]byte{}, good...)
	vecStart := 16 + 4*e.NumEntries()
	// Set the top bit of the first vector's last (only) word.
	bad[vecStart+7] |= 0x80
	if _, err := ReadImage(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted tail garbage")
	}
}

// imageHeader returns the 16-byte header of an image of ne entries and
// numRules rules at stride k.
func imageHeader(k, ne, numRules int) []byte {
	hdr := make([]byte, 16)
	copy(hdr, imageMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(k))
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(packet.NumStrides(k)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(ne))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(numRules))
	return hdr
}

// readAllocs returns the bytes ReadImage allocates failing on img, which
// must be rejected.
func readAllocs(t *testing.T, img []byte) uint64 {
	t.Helper()
	r := bytes.NewReader(img)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err := ReadImage(r)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a cut image was accepted")
	}
	return m1.TotalAlloc - m0.TotalAlloc
}

// ReadImage allocates for what it has read, not for what the header
// declares: a header alone that claims 2^20 entries costs well under a
// megabyte, and an image cut after its parent table costs at most three
// times the bytes it delivered, however large the stage blocks it declares
// (13× the parent table at k = 4, 104× at k = 8).
func TestReadImageAllocatesForBytesRead(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur TotalAlloc deltas; the gate runs in normal builds")
	}
	if got := readAllocs(t, imageHeader(4, 1<<20, 1)); got >= 1<<20 {
		t.Fatalf("header-only image at ne = 2^20 allocated %d bytes, want < 1 MB", got)
	}
	for _, k := range []int{4, 8} {
		for _, ne := range []int{1024, 1 << 16} {
			img := append(imageHeader(k, ne, 1), make([]byte, 4*ne)...)
			if got := readAllocs(t, img); got > 3*uint64(len(img)) {
				t.Fatalf("k=%d ne=%d: image cut after its parent table (%d bytes) allocated %d bytes, want at most 3×",
					k, ne, len(img), got)
			}
		}
	}
}

// FuzzReadImage feeds ReadImage arbitrary bytes. It either rejects them,
// or returns an engine that classifies into [-1, NumRules) and whose image
// is exactly the bytes it consumed.
func FuzzReadImage(f *testing.F) {
	for _, k := range []int{3, 4} {
		for _, profile := range []ruleset.Profile{ruleset.PrefixOnly, ruleset.FirewallProfile} {
			_, ex := genSet(f, 6, profile, int64(40+k))
			e, err := New(ex, k)
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.WriteImage(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		e, err := ReadImage(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := e.WriteImage(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("WriteImage gave %d bytes that differ from the %d consumed", out.Len(), len(consumed))
		}
		// Headers from the image's own bytes reach its stage memory's set
		// bits more often than random ones.
		hdrs := []packet.Header{{}, {SIP: ^uint32(0), DIP: ^uint32(0), SP: 65535, DP: 65535, Proto: 255}}
		for i := 0; i+8 <= len(consumed); i += 97 {
			w := binary.LittleEndian.Uint64(consumed[i:])
			hdrs = append(hdrs, packet.HeaderFromWords(w, w<<24))
		}
		for _, h := range hdrs {
			if got := e.Classify(h); got < -1 || got >= e.NumRules() {
				t.Fatalf("Classify(%v) = %d, outside [-1, %d)", h, got, e.NumRules())
			}
		}
	})
}
