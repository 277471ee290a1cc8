package obsv

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if seq := j.Append(EventSwapCommitted, 1, 2, 3, 0); seq != 0 {
		t.Fatalf("nil Append returned seq %d", seq)
	}
	if j.Snapshot() != nil {
		t.Fatal("nil Snapshot != nil")
	}
	if st := j.Stats(); st != (JournalStats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}

func TestJournalAppendSnapshot(t *testing.T) {
	j := NewJournal(16)
	s1 := j.Append(EventSwapCommitted, 7, 4096, 0, 0)
	s2 := j.Append(EventDeltaFallback, 7, 3, 0, 0)
	s3 := j.Append(EventRebalanceCandidate, 0, 2, 0, 2.5)
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("seqs = %d,%d,%d, want 1,2,3", s1, s2, s3)
	}
	evs := j.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(evs))
	}
	// Newest first.
	if evs[0].Kind != EventRebalanceCandidate || evs[0].Seq != 3 || evs[0].V != 2.5 {
		t.Fatalf("evs[0] = %+v", evs[0])
	}
	if evs[2].Kind != EventSwapCommitted || evs[2].Gen != 7 || evs[2].A != 4096 {
		t.Fatalf("evs[2] = %+v", evs[2])
	}
	for _, e := range evs {
		if e.Nanos == 0 {
			t.Fatalf("event %d missing timestamp", e.Seq)
		}
	}
	if st := j.Stats(); st.Appended != 3 || st.Dropped != 0 || st.Slots != 16 {
		t.Fatalf("Stats = %+v", st)
	}
	// Snapshot is non-destructive.
	if again := j.Snapshot(); len(again) != 3 {
		t.Fatalf("second Snapshot len = %d, want 3", len(again))
	}
}

func TestJournalWraparoundKeepsNewest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(EventGenerationRetired, uint64(i), 0, 0, 0)
	}
	evs := j.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(evs))
	}
	// The ring holds the 4 newest appends: seqs 10,9,8,7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if evs[i].Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
}

func TestJournalConcurrentAppendSnapshot(t *testing.T) {
	j := NewJournal(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Append(EventSwapCommitted, uint64(g), int64(i), 0, 0)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range j.Snapshot() {
				if e.Seq == 0 || e.Nanos == 0 {
					t.Error("snapshot surfaced an unwritten event")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	st := j.Stats()
	if st.Appended+st.Dropped != 2000 {
		t.Fatalf("appended %d + dropped %d != 2000", st.Appended, st.Dropped)
	}
}

func TestEventKindNamesAndJSON(t *testing.T) {
	names := map[EventKind]string{
		EventSwapCommitted:      "swap-committed",
		EventSwapRolledBack:     "swap-rolled-back",
		EventDeltaFallback:      "delta-fallback",
		EventGenerationRetired:  "generation-retired",
		EventRebalanceCandidate: "rebalance-candidate",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	b, err := json.Marshal(Event{Seq: 9, Nanos: 12345, Kind: EventDeltaFallback, A: 4, B: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"delta-fallback"`) {
		t.Fatalf("event JSON missing named kind: %s", b)
	}
}

func TestEventString(t *testing.T) {
	s := Event{Seq: 3, Nanos: 1, Kind: EventSwapRolledBack, Gen: 5, A: 2, B: 1}.String()
	for _, want := range []string{"#3", "swap-rolled-back", "gen=5", "a=2", "b=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "v=") {
		t.Fatalf("zero V rendered: %q", s)
	}
	s = Event{Seq: 4, Kind: EventRebalanceCandidate, V: 2.125}.String()
	if !strings.Contains(s, "v=2.125") {
		t.Fatalf("Event.String() = %q missing v", s)
	}
}
