package flowstats

import (
	"sync"
	"testing"

	"pktclass/internal/packet"
)

// flowHeader builds a distinct 5-tuple per flow index.
func flowHeader(i int) packet.Header {
	return packet.Header{
		SIP:   uint32(0x0a000000 + i),
		DIP:   uint32(0xc0a80000 + i*7),
		SP:    uint16(1024 + i%40000),
		DP:    uint16(80 + i%3),
		Proto: 6,
	}
}

// observeSteered pushes a trace through the detector exactly as the
// steered path would: each packet hashed once, steered to its worker,
// and observed on that worker's stripe in arrival order.
func observeSteered(d *Detector, trace []packet.Header, workers int) {
	perHdrs := make([][]packet.Header, workers)
	perHashes := make([][]uint64, workers)
	flush := func() {
		for w := 0; w < workers; w++ {
			if len(perHdrs[w]) > 0 {
				d.ObserveBatch(w, perHdrs[w], perHashes[w])
				perHdrs[w] = perHdrs[w][:0]
				perHashes[w] = perHashes[w][:0]
			}
		}
	}
	for i, h := range trace {
		hash := h.Key().Hash()
		w := packet.SteerWorker(hash, workers)
		perHdrs[w] = append(perHdrs[w], h)
		perHashes[w] = append(perHashes[w], hash)
		if i%256 == 255 {
			flush()
		}
	}
	flush()
}

func TestDetectorNilSafe(t *testing.T) {
	var d *Detector
	d.ObserveBatch(0, nil, nil)
	if d.TopK(4) != nil {
		t.Fatal("nil TopK != nil")
	}
	if d.TopKShare() != 0 || d.Packets() != 0 {
		t.Fatal("nil detector reported non-zero stats")
	}
	if rep := d.Report(4); rep.Packets != 0 || rep.Flows != nil {
		t.Fatalf("nil Report: %+v", rep)
	}
}

// With fewer flows than sketch cells and top slots, every count must be
// exact and every flow resident.
func TestDetectorExactSmallFlowSet(t *testing.T) {
	d := NewDetector(1, 8, 64)
	want := map[uint64]uint64{}
	var hdrs []packet.Header
	var hashes []uint64
	for f := 0; f < 5; f++ {
		h := flowHeader(f)
		hash := h.Key().Hash()
		for n := 0; n <= f*3; n++ {
			hdrs = append(hdrs, h)
			hashes = append(hashes, hash)
			want[hash]++
		}
	}
	d.ObserveBatch(0, hdrs, hashes)
	if got := d.Packets(); got != uint64(len(hdrs)) {
		t.Fatalf("Packets = %d, want %d", got, len(hdrs))
	}
	top := d.TopK(8)
	if len(top) != len(want) {
		t.Fatalf("TopK returned %d flows, want %d", len(top), len(want))
	}
	for _, fc := range top {
		if want[fc.Hash] != fc.Count {
			t.Fatalf("flow %x: count %d, want %d", fc.Hash, fc.Count, want[fc.Hash])
		}
		// The stored key must round-trip to the header that was observed.
		if fc.Hdr.Key().Hash() != fc.Hash {
			t.Fatalf("flow %x: reconstructed header %v hashes to %x", fc.Hash, fc.Hdr, fc.Hdr.Key().Hash())
		}
	}
	// Descending count order.
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("TopK not sorted: %d before %d", top[i-1].Count, top[i].Count)
		}
	}
}

// Space-saving must keep heavy flows resident while a long tail of
// one-packet flows churns through the table.
func TestDetectorHeavyFlowsSurviveTail(t *testing.T) {
	d := NewDetector(1, 8, 1024)
	var hdrs []packet.Header
	var hashes []uint64
	add := func(h packet.Header, n int) {
		hash := h.Key().Hash()
		for i := 0; i < n; i++ {
			hdrs = append(hdrs, h)
			hashes = append(hashes, hash)
		}
	}
	heavy := map[uint64]bool{}
	for f := 0; f < 4; f++ {
		h := flowHeader(f)
		heavy[h.Key().Hash()] = true
		add(h, 500)
	}
	for f := 100; f < 600; f++ {
		add(flowHeader(f), 1)
	}
	d.ObserveBatch(0, hdrs, hashes)
	found := 0
	for _, fc := range d.TopK(4) {
		if heavy[fc.Hash] {
			found++
		}
		if fc.Count < 500 {
			t.Fatalf("top flow %x count %d below true count (CMS must overestimate, never under)", fc.Hash, fc.Count)
		}
	}
	if found != 4 {
		t.Fatalf("only %d of 4 heavy flows survived the tail churn", found)
	}
}

// The acceptance-criteria recall test: on a deterministic Zipf(1.2)
// trace steered across 4 stripes, the detector must recover at least
// 90% of the true top-8 flows.
func TestDetectorZipfRecall(t *testing.T) {
	const (
		workers = 4
		flows   = 4096
		count   = 100000
	)
	pop := make([]packet.Header, flows)
	for i := range pop {
		pop[i] = flowHeader(i)
	}
	trace, err := packet.ZipfTrace(pop, packet.ZipfTraceConfig{
		Count: count, S: 1.2, MeanBurst: 4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	truth := map[uint64]int{}
	for _, h := range trace {
		truth[h.Key().Hash()]++
	}
	type hc struct {
		hash uint64
		n    int
	}
	ranked := make([]hc, 0, len(truth))
	for h, n := range truth {
		ranked = append(ranked, hc{h, n})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[i].n {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}

	d := NewDetector(workers, 16, 0)
	observeSteered(d, trace, workers)
	if got := d.Packets(); got != count {
		t.Fatalf("Packets = %d, want %d", got, count)
	}

	detected := map[uint64]bool{}
	for _, fc := range d.TopK(8) {
		detected[fc.Hash] = true
	}
	hits := 0
	for _, top := range ranked[:8] {
		if detected[top.hash] {
			hits++
		}
	}
	recall := float64(hits) / 8
	t.Logf("top-8 recall on Zipf(1.2): %.2f (%d/8), top-share %.3f", recall, hits, d.TopKShare())
	if recall < 0.9 {
		t.Fatalf("top-8 recall %.2f < 0.9", recall)
	}
	if share := d.TopKShare(); share <= 0 || share > 1 {
		t.Fatalf("TopKShare = %v, want (0,1]", share)
	}
}

// Concurrent scrape reads must never block or corrupt the single-writer
// stripes (run under -race in CI).
func TestRacedDetectorReadsDuringObserve(t *testing.T) {
	const workers = 4
	d := NewDetector(workers, 8, 256)
	trace := make([]packet.Header, 2048)
	for i := range trace {
		trace[i] = flowHeader(i % 64)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.TopK(8)
				d.TopKShare()
				d.Report(4)
			}
		}()
	}
	for pass := 0; pass < 8; pass++ {
		observeSteered(d, trace, workers)
	}
	close(stop)
	wg.Wait()
	// Every heavy flow's count must still be >= its true count: reader
	// claims never perturb writer state.
	counts := map[uint64]uint64{}
	for _, fc := range d.TopK(0) {
		counts[fc.Hash] = fc.Count
	}
	truth := map[uint64]uint64{}
	for _, h := range trace {
		truth[h.Key().Hash()] += 8
	}
	for h, n := range truth {
		if c, ok := counts[h]; ok && c < n {
			t.Fatalf("flow %x: sketch count %d below true count %d after raced reads", h, c, n)
		}
	}
}

// ObserveBatch is on the steered hot path: zero allocations, always.
func TestDetectorObserveAllocs(t *testing.T) {
	d := NewDetector(2, 16, 0)
	hdrs := make([]packet.Header, 256)
	hashes := make([]uint64, 256)
	for i := range hdrs {
		hdrs[i] = flowHeader(i % 32)
		hashes[i] = hdrs[i].Key().Hash()
	}
	if n := testing.AllocsPerRun(100, func() {
		d.ObserveBatch(0, hdrs, hashes)
		d.ObserveBatch(1, hdrs, hashes)
	}); n != 0 {
		t.Fatalf("ObserveBatch allocated %v times per run, want 0", n)
	}
	var nilDet *Detector
	if n := testing.AllocsPerRun(100, func() {
		nilDet.ObserveBatch(0, hdrs, hashes)
	}); n != 0 {
		t.Fatalf("nil ObserveBatch allocated %v times per run, want 0", n)
	}
}

// BenchmarkDetectorObserve is the CI allocation gate for the sketch
// observe path: one op = one 512-packet mixed-flow batch into a stripe.
func BenchmarkDetectorObserve(b *testing.B) {
	d := NewDetector(1, 16, 0)
	hdrs := make([]packet.Header, 512)
	hashes := make([]uint64, 512)
	for i := range hdrs {
		hdrs[i] = flowHeader(i % 64)
		hashes[i] = hdrs[i].Key().Hash()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ObserveBatch(0, hdrs, hashes)
	}
}
