// Package flowstats is the flow-popularity half of the steering
// observability story: a wait-free, worker-striped heavy-hitter detector
// that rides the steered classify path at zero allocations. Each worker
// owns one stripe — a conservative-update count-min sketch feeding a
// space-saving top-K table — and observes only the flows steered to it,
// so the single-writer discipline the worker-private flow caches already
// rely on extends to the sketch for free: no locks, no CAS loops, no
// cross-core write traffic. Scrapes read the stripes through atomic
// cells, so a snapshot never blocks a worker and a worker never blocks a
// snapshot.
//
// The detector is keyed on the flow hash (packet.Header.Hash) the steered
// dispatch already computes for worker selection, so observing a batch
// costs no extra hashing. Like the tracer, a nil *Detector is the valid
// "off" state: every method is nil-safe and the hot path carries exactly
// one branch when detection is disabled.
package flowstats

import (
	"sort"
	"sync/atomic"

	"pktclass/internal/packet"
)

// cmsDepth is the count-min sketch row count: four independent views of
// the flow space bound the overestimate to the min over four counters.
const cmsDepth = 4

// defaultWidth is the per-row cell count when NewDetector is not given
// one: 1024 cells x 4 rows x 8 B = 32 KiB per worker stripe.
const defaultWidth = 1 << 10

// defaultK is the per-stripe top-K table size when NewDetector is not
// given one.
const defaultK = 16

// topEntry is one space-saving slot. Every word is atomic so a scrape can
// read a stripe while its owner worker is mid-update: a replacement zeroes
// count first and restores it last, so a racing reader sees either the old
// flow, the new flow, or an empty slot — never a partial word, and never a
// stall on either side. A torn (hash, key) pair across the rare replacement
// window is a display artifact, not corruption: the writer's own state is
// untouched by readers.
type topEntry struct {
	hash  atomic.Uint64
	keyHi atomic.Uint64 // the flow's packet.Header.Words, high word
	keyLo atomic.Uint64 // and low word
	count atomic.Uint64 // sketch estimate; 0 marks empty or mid-replacement
}

// stripe is one worker's private sketch: cmsDepth rows of width counters
// plus a K-entry space-saving table. Exactly one goroutine (the owning
// worker) writes a stripe; any goroutine may read it.
type stripe struct {
	cms  []atomic.Uint64 // cmsDepth rows x width cells, row-major
	top  []topEntry
	mask uint64 // width - 1
	pkts atomic.Uint64
}

// Detector is the worker-striped heavy-hitter sketch. Build one with
// NewDetector; a nil Detector is "detection off" (all methods nil-safe).
type Detector struct {
	stripes []stripe
	k       int
}

// NewDetector sizes a detector for workers stripes, k top slots per
// stripe (0 selects 16) and width count-min cells per row (0 selects
// 1024; rounded up to a power of two).
func NewDetector(workers, k, width int) *Detector {
	if workers < 1 {
		workers = 1
	}
	if k <= 0 {
		k = defaultK
	}
	if width <= 0 {
		width = defaultWidth
	}
	w := 1
	for w < width {
		w <<= 1
	}
	d := &Detector{stripes: make([]stripe, workers), k: k}
	for i := range d.stripes {
		st := &d.stripes[i]
		st.cms = make([]atomic.Uint64, cmsDepth*w)
		st.top = make([]topEntry, k)
		st.mask = uint64(w - 1)
	}
	return d
}

// Packets returns the total observed packet count across all stripes.
func (d *Detector) Packets() uint64 {
	if d == nil {
		return 0
	}
	var total uint64
	for i := range d.stripes {
		total += d.stripes[i].pkts.Load()
	}
	return total
}

// ObserveBatch feeds one steered sub-batch into worker's stripe.
// hashes[i] must be hdrs[i].Hash() — the steered dispatch computes
// exactly this for worker selection and passes it through, so the
// detector never rehashes. Consecutive packets of the same flow (the
// common case under bursty traffic) are coalesced into one sketch update.
// Must be called only by the stripe's owning worker. Nil-safe: one branch
// when detection is off.
//
//pclass:hotpath
func (d *Detector) ObserveBatch(worker int, hdrs []packet.Header, hashes []uint64) {
	if d == nil {
		return
	}
	st := &d.stripes[worker]
	n := len(hashes)
	for i := 0; i < n; {
		h := hashes[i]
		j := i + 1
		for j < n && hashes[j] == h {
			j++
		}
		st.observe(hdrs[i], h, uint64(j-i))
		i = j
	}
	st.pkts.Add(uint64(n))
}

// observe records n packets of one flow: a conservative count-min update
// (only cells below the new estimate move, so colliding flows inflate
// each other as little as possible) and a space-saving top-K pass that
// admits the flow when its estimate beats the current minimum resident.
//
//pclass:hotpath
func (st *stripe) observe(hdr packet.Header, h uint64, n uint64) {
	// Kirsch-Mitzenmacher row addressing: row r probes (h + r*h2) & mask,
	// with h2 a cheap remix of h, giving cmsDepth near-independent views
	// without rehashing the key.
	h2 := h*0xff51afd7ed558ccd ^ h>>33
	est := ^uint64(0)
	base := 0
	width := int(st.mask) + 1
	var cells [cmsDepth]*atomic.Uint64
	for r := 0; r < cmsDepth; r++ {
		c := &st.cms[base+int((h+uint64(r)*h2)&st.mask)]
		cells[r] = c
		if v := c.Load(); v < est {
			est = v
		}
		base += width
	}
	est += n
	for r := 0; r < cmsDepth; r++ {
		// Single writer per stripe: plain Load/Store is enough, the
		// atomics exist so concurrent scrape reads are well-defined.
		if cells[r].Load() < est {
			cells[r].Store(est)
		}
	}

	minIdx, minCount := 0, ^uint64(0)
	for j := range st.top {
		e := &st.top[j]
		if e.hash.Load() == h && e.count.Load() != 0 {
			e.count.Store(e.count.Load() + n)
			return
		}
		if c := e.count.Load(); c < minCount {
			minCount, minIdx = c, j
		}
	}
	if est <= minCount {
		return
	}
	e := &st.top[minIdx]
	hi, lo := hdr.Words()
	// Zero the count first and restore it last so a concurrent reader
	// sees the slot as empty while hash and key change underneath.
	e.count.Store(0)
	e.hash.Store(h)
	e.keyHi.Store(hi)
	e.keyLo.Store(lo)
	e.count.Store(est)
}

// FlowCount is one detected heavy hitter: the flow's steering hash, its
// unpacked 5-tuple, the sketch's count estimate, that count's share of
// all observed packets, and the worker the flow steers to.
type FlowCount struct {
	Hash   uint64        `json:"hash"`
	Hdr    packet.Header `json:"header"`
	Count  uint64        `json:"count"`
	Share  float64       `json:"share"`
	Worker int           `json:"worker"`
}

// TopK merges every stripe's resident flows and returns the n largest by
// estimated count (n <= 0 selects the detector's own K). Counts are
// sketch estimates: exact for flows that never shared a top slot,
// overestimates otherwise. Safe to call concurrently with observation.
func (d *Detector) TopK(n int) []FlowCount {
	if d == nil {
		return nil
	}
	if n <= 0 {
		n = d.k
	}
	total := d.Packets()
	out := make([]FlowCount, 0, len(d.stripes)*d.k)
	for w := range d.stripes {
		st := &d.stripes[w]
		for j := range st.top {
			e := &st.top[j]
			c := e.count.Load()
			if c == 0 {
				continue
			}
			fc := FlowCount{
				Hash:   e.hash.Load(),
				Hdr:    packet.HeaderFromWords(e.keyHi.Load(), e.keyLo.Load()),
				Count:  c,
				Worker: w,
			}
			if total > 0 {
				fc.Share = float64(c) / float64(total)
			}
			out = append(out, fc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Hash < out[j].Hash
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// TopKShare returns the fraction of all observed packets attributed to
// the K globally-largest resident flows, clamped to 1 (sketch estimates
// can overcount). 0 when the detector is nil or has seen no traffic.
// This is the popularity-skew signal the rebalance-candidate check
// multiplies with the imbalance index.
func (d *Detector) TopKShare() float64 {
	if d == nil {
		return 0
	}
	total := d.Packets()
	if total == 0 {
		return 0
	}
	var sum uint64
	for _, fc := range d.TopK(d.k) {
		sum += fc.Count
	}
	share := float64(sum) / float64(total)
	if share > 1 {
		share = 1
	}
	return share
}

// Report is the /topflows document: the observed packet total, the
// detector geometry, the top-K share, and the merged flow table.
type Report struct {
	Packets  uint64      `json:"packets"`
	Workers  int         `json:"workers"`
	K        int         `json:"k"`
	TopShare float64     `json:"top_share"`
	Flows    []FlowCount `json:"flows"`
}

// Report snapshots the detector for exposition (n as in TopK). Valid on a
// nil detector: the zero Report.
func (d *Detector) Report(n int) Report {
	if d == nil {
		return Report{}
	}
	return Report{
		Packets:  d.Packets(),
		Workers:  len(d.stripes),
		K:        d.k,
		TopShare: d.TopKShare(),
		Flows:    d.TopK(n),
	}
}
