package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pktclass/internal/packet"
)

// HopKind identifies one stage of a traced packet's journey through the
// serving stack.
type HopKind uint8

const (
	// HopCacheHit / HopCacheMiss: the flow-cache probe. Stage is 0; Detail
	// is the cached rule on a hit, -1 on a miss.
	HopCacheHit HopKind = iota
	HopCacheMiss
	// HopStrideStage: one StrideBV pipeline stage. Stage is the stage
	// index; Detail is the popcount of the surviving bit vector after the
	// stage's AND.
	HopStrideStage
	// HopTCAMSearch: a TCAM parallel search. Detail is the number of
	// asserted match lines.
	HopTCAMSearch
	// HopPriorityEncode: the priority encoder. Detail is the winning
	// expanded-entry index (-1 when no match line survived).
	HopPriorityEncode
	// HopEngine: an engine without a traced path. Detail is the returned
	// rule index.
	HopEngine
)

// String names the hop kind for /tracez and reports.
func (k HopKind) String() string {
	switch k {
	case HopCacheHit:
		return "cache-hit"
	case HopCacheMiss:
		return "cache-miss"
	case HopStrideStage:
		return "stride-stage"
	case HopTCAMSearch:
		return "tcam-search"
	case HopPriorityEncode:
		return "priority-encode"
	case HopEngine:
		return "engine"
	default:
		return fmt.Sprintf("hop(%d)", uint8(k))
	}
}

// Hop is one recorded stage of a traced packet.
type Hop struct {
	Kind   HopKind `json:"kind"`
	Stage  int32   `json:"stage"`
	Detail int64   `json:"detail"`
	Nanos  int64   `json:"nanos"` // time since the previous hop (or trace start)
}

// MaxHops bounds the per-trace hop storage. FSBV (k=1) is the deepest
// pipeline: 104 stride stages plus the cache probe and priority encoder.
const MaxHops = 112

// PacketTrace is one sampled packet's hop-by-hop record. Instances are
// ring slots owned by a Tracer: engines write hops with AddHop, the
// serving layer seals the record with Tracer.Finish, and readers get
// copies from Tracer.Snapshot.
type PacketTrace struct {
	Seq        uint64        `json:"seq"` // global packet ordinal that drew the sample
	Engine     string        `json:"engine"`
	Hdr        packet.Header `json:"header"`
	Result     int           `json:"result"`
	TotalNanos int64         `json:"total_nanos"`
	// Worker is the serve worker that classified the sampled packet (-1
	// when the sample was taken outside the serving layer).
	Worker  int32        `json:"worker"`
	NHops   int          `json:"-"`
	Dropped int          `json:"dropped,omitempty"` // hops beyond MaxHops
	Hops    [MaxHops]Hop `json:"-"`

	start time.Time
	last  time.Time
	slot  *traceSlot
}

// AddHop appends one hop, stamping the nanoseconds since the previous hop.
// Nil-safe and allocation-free: untraced packets carry a nil trace and the
// call is a single branch.
//
//pclass:hotpath
func (tr *PacketTrace) AddHop(kind HopKind, stage int, detail int64) {
	if tr == nil {
		return
	}
	now := time.Now()
	if tr.NHops >= MaxHops {
		tr.Dropped++
		tr.last = now
		return
	}
	tr.Hops[tr.NHops] = Hop{Kind: kind, Stage: int32(stage), Detail: detail, Nanos: now.Sub(tr.last).Nanoseconds()}
	tr.NHops++
	tr.last = now
}

// SetEngine records the engine name once (the outermost traced layer wins,
// so cached(stridebv-k4) is not overwritten by the inner engine's name).
func (tr *PacketTrace) SetEngine(name string) {
	if tr != nil && tr.Engine == "" {
		tr.Engine = name
	}
}

// HopSlice returns the recorded hops (a view into the trace's fixed
// storage, valid only on snapshot copies or before Finish).
func (tr *PacketTrace) HopSlice() []Hop { return tr.Hops[:tr.NHops] }

// String renders the trace for /tracez and logs.
func (tr *PacketTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace #%d engine=%s hdr=%s result=%d total=%s",
		tr.Seq, tr.Engine, tr.Hdr, tr.Result, time.Duration(tr.TotalNanos))
	if tr.Worker >= 0 {
		fmt.Fprintf(&b, " worker=%d", tr.Worker)
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(&b, " dropped=%d", tr.Dropped)
	}
	for _, h := range tr.HopSlice() {
		fmt.Fprintf(&b, "\n  %-16s stage=%-3d detail=%-6d %s", h.Kind, h.Stage, h.Detail, time.Duration(h.Nanos))
	}
	return b.String()
}

// traceSlot is one ring entry: a version word plus the trace record. Odd
// version = someone owns the slot payload. Writers and snapshot readers
// both claim a slot by CASing its even version to odd, so every access to
// tr is ordered through the version atomic (a plain seqlock read-and-
// recheck would be a data race under the Go memory model). Whoever loses
// the CAS walks away — writers drop the sample, readers skip the slot.
type traceSlot struct {
	version atomic.Uint64
	tr      PacketTrace
}

// Tracer samples 1 in every `every` packets into a fixed ring of trace
// slots. Sampling is a single atomic add on the shared packet ordinal;
// unsampled packets never touch the ring. The zero-size ring and the nil
// Tracer are both valid "tracing off" states — every method is nil-safe,
// so the serving hot path carries exactly one branch when tracing is
// disabled.
type Tracer struct {
	every int64
	slots []traceSlot

	ordinal atomic.Int64 // packets seen (sampling clock)
	next    atomic.Uint64
	sampled atomic.Int64 // traces started
	busy    atomic.Int64 // samples dropped: ring slot still being written
}

// NewTracer samples one packet in every (every) into a ring of slots
// completed traces (0 selects 64; every <= 0 disables sampling, returning
// a tracer that never samples — still usable, never nil-panics).
func NewTracer(every, slots int) *Tracer {
	if slots <= 0 {
		slots = 64
	}
	t := &Tracer{every: int64(every)}
	if every > 0 {
		t.slots = make([]traceSlot, slots)
	}
	return t
}

// SampleBatch advances the sampling clock by n packets and, when one of
// them lands on the 1-in-`every` grid, acquires a trace for it: the returned
// index is the packet's offset within the batch. At most one packet per
// batch is sampled (at 1-in-1 that is the batch's first packet). Returns
// (-1, nil) when no packet sampled, the tracer is nil/disabled, or the
// ring slot is still busy with a previous writer.
//
//pclass:hotpath
func (t *Tracer) SampleBatch(n int) (int, *PacketTrace) {
	if t == nil || t.every <= 0 || n <= 0 {
		return -1, nil
	}
	before := t.ordinal.Add(int64(n)) - int64(n)
	grid := (before/t.every + 1) * t.every // first sampled ordinal after before
	if grid > before+int64(n) {
		return -1, nil
	}
	tr := t.acquire(uint64(grid))
	if tr == nil {
		return -1, nil
	}
	return int(grid - before - 1), tr
}

// acquire claims the next ring slot for writing. A slot still owned by a
// concurrent writer is skipped (counted in busy) rather than waited on.
//
//pclass:hotpath
func (t *Tracer) acquire(seq uint64) *PacketTrace {
	slot := &t.slots[int(t.next.Add(1)-1)%len(t.slots)]
	v := slot.version.Load()
	if v&1 != 0 || !slot.version.CompareAndSwap(v, v+1) {
		t.busy.Add(1)
		return nil
	}
	t.sampled.Add(1)
	now := time.Now()
	slot.tr = PacketTrace{Seq: seq, Result: -1, Worker: -1, start: now, last: now, slot: slot}
	return &slot.tr
}

// Finish seals a trace: stamps the total latency and publishes the slot to
// readers. Nil-safe; a nil trace is a no-op.
//
//pclass:hotpath
func (t *Tracer) Finish(tr *PacketTrace) {
	if t == nil || tr == nil {
		return
	}
	tr.TotalNanos = time.Since(tr.start).Nanoseconds()
	tr.slot.version.Add(1)
}

// Stats reports the tracer's own accounting.
type TracerStats struct {
	Every   int64 `json:"every"`
	Packets int64 `json:"packets"` // sampling-clock ordinal
	Sampled int64 `json:"sampled"`
	Busy    int64 `json:"busy"` // samples skipped on a busy ring slot
	Slots   int   `json:"slots"`
}

// Stats snapshots the tracer counters (zero for a nil tracer).
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Every:   t.every,
		Packets: t.ordinal.Load(),
		Sampled: t.sampled.Load(),
		Busy:    t.busy.Load(),
		Slots:   len(t.slots),
	}
}

// Snapshot copies every completed trace out of the ring, newest first.
// Each slot is claimed with the writers' own version CAS for the duration
// of the copy: slots mid-write are skipped, and a writer whose ring cursor
// lands on a slot mid-copy drops that sample (counted in busy) exactly as
// if another writer held it.
func (t *Tracer) Snapshot() []PacketTrace {
	if t == nil || len(t.slots) == 0 {
		return nil
	}
	out := make([]PacketTrace, 0, len(t.slots))
	for i := range t.slots {
		slot := &t.slots[i]
		v := slot.version.Load()
		if v == 0 || v&1 != 0 {
			continue // never written, or a writer owns it
		}
		if !slot.version.CompareAndSwap(v, v+1) {
			continue // lost the claim to a writer
		}
		tr := slot.tr
		slot.version.Store(v) // release unchanged; the slot stays claimable
		tr.slot = nil
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}
