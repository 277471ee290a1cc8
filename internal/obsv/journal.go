package obsv

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// EventKind identifies one class of control-plane transition recorded in
// the Journal.
type EventKind uint8

const (
	// EventSwapCommitted: an engine build went live. Gen is the new
	// generation, A the ruleset size, B 1 when the O(delta) incremental
	// path committed it (0 for a full shadow rebuild).
	EventSwapCommitted EventKind = iota
	// EventSwapRolledBack: a swap attempt was rejected and the previous
	// engine kept serving. Gen is the still-serving generation, A names
	// the stage (1 build/apply, 2 verify), B 1 on the incremental path.
	EventSwapRolledBack
	// EventDeltaFallback: an incremental update could not be taken as a
	// delta (structural change or no engine primitive) and went to the
	// rebuild path. A is the op count.
	EventDeltaFallback
	// EventGenerationRetired: a swap retired Gen — every cache entry
	// tagged with it is now a lazy miss.
	EventGenerationRetired
	// EventRebalanceCandidate: top-K flow share x imbalance index crossed
	// the configured threshold — the steering layer flags that moving or
	// splitting an elephant flow would pay. A is the hottest worker, V
	// the score that tripped the threshold.
	EventRebalanceCandidate
)

// String names the event kind for /eventz and reports.
func (k EventKind) String() string {
	switch k {
	case EventSwapCommitted:
		return "swap-committed"
	case EventSwapRolledBack:
		return "swap-rolled-back"
	case EventDeltaFallback:
		return "delta-fallback"
	case EventGenerationRetired:
		return "generation-retired"
	case EventRebalanceCandidate:
		return "rebalance-candidate"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its name, so /eventz JSON is readable
// without the enum table.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the kind's name (round-trips MarshalJSON for
// /eventz consumers that decode back into Event).
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for c := EventSwapCommitted; c <= EventRebalanceCandidate; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", s)
}

// Event is one journaled control-plane transition. Seq is a global
// append ordinal (gaps mark events dropped on a busy ring slot), Nanos
// the wall-clock UnixNano stamp. Gen/A/B/V carry per-kind detail — see
// the EventKind constants.
type Event struct {
	Seq   uint64    `json:"seq"`
	Nanos int64     `json:"nanos"`
	Kind  EventKind `json:"kind"`
	Gen   uint64    `json:"gen,omitempty"`
	A     int64     `json:"a,omitempty"`
	B     int64     `json:"b,omitempty"`
	V     float64   `json:"v,omitempty"`
}

// String renders the event for /eventz and end-of-run reports.
func (e Event) String() string {
	ts := time.Unix(0, e.Nanos).Format("15:04:05.000000")
	s := fmt.Sprintf("#%-4d %s %-19s gen=%d a=%d b=%d", e.Seq, ts, e.Kind, e.Gen, e.A, e.B)
	if e.V != 0 {
		s += fmt.Sprintf(" v=%.3f", e.V)
	}
	return s
}

// journalSlot is one ring entry, claimed with the same even/odd version
// CAS protocol as traceSlot: writers and snapshot readers both CAS the
// even version to odd, so every access to ev is ordered through the
// version word. Whoever loses the CAS walks away — writers drop the
// event (counted), readers skip the slot.
type journalSlot struct {
	version atomic.Uint64
	ev      Event
}

// Journal is a fixed-size lock-free ring of control-plane events. Append
// never blocks: a slot still owned by a concurrent appender or snapshot
// is skipped and the drop counted. Like the Tracer, a nil *Journal is
// the valid "journaling off" state — every method is nil-safe.
type Journal struct {
	slots []journalSlot

	seq      atomic.Uint64
	next     atomic.Uint64
	appended atomic.Uint64
	dropped  atomic.Uint64
}

// NewJournal builds a journal of slots entries (<= 0 selects 256).
func NewJournal(slots int) *Journal {
	if slots <= 0 {
		slots = 256
	}
	return &Journal{slots: make([]journalSlot, slots)}
}

// Append records one event, stamping its sequence number and wall-clock
// nanos. Returns the sequence number (0 when the journal is nil or the
// ring slot was busy and the event dropped). Safe from any goroutine.
func (j *Journal) Append(kind EventKind, gen uint64, a, b int64, v float64) uint64 {
	if j == nil {
		return 0
	}
	seq := j.seq.Add(1)
	slot := &j.slots[int(j.next.Add(1)-1)%len(j.slots)]
	ver := slot.version.Load()
	if ver&1 != 0 || !slot.version.CompareAndSwap(ver, ver+1) {
		j.dropped.Add(1)
		return 0
	}
	slot.ev = Event{Seq: seq, Nanos: time.Now().UnixNano(), Kind: kind, Gen: gen, A: a, B: b, V: v}
	slot.version.Add(1)
	j.appended.Add(1)
	return seq
}

// JournalStats is the journal's own accounting.
type JournalStats struct {
	Appended uint64 `json:"appended"`
	Dropped  uint64 `json:"dropped"` // events lost to a busy ring slot
	Slots    int    `json:"slots"`
}

// Stats snapshots the journal counters (zero for a nil journal).
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	return JournalStats{Appended: j.appended.Load(), Dropped: j.dropped.Load(), Slots: len(j.slots)}
}

// Snapshot copies every recorded event out of the ring, newest first.
// Slots mid-append are skipped; an appender whose cursor lands on a slot
// mid-copy drops its event exactly as if another appender held it.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, len(j.slots))
	for i := range j.slots {
		slot := &j.slots[i]
		v := slot.version.Load()
		if v == 0 || v&1 != 0 {
			continue // never written, or an appender owns it
		}
		if !slot.version.CompareAndSwap(v, v+1) {
			continue // lost the claim to an appender
		}
		ev := slot.ev
		slot.version.Store(v) // release unchanged; the slot stays claimable
		out = append(out, ev)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq > out[b].Seq })
	return out
}
