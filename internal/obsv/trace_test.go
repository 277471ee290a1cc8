package obsv

import (
	"strings"
	"sync"
	"testing"

	"pktclass/internal/packet"
)

func TestNilTraceAndNilTracerAreSafe(t *testing.T) {
	var tr *PacketTrace
	tr.AddHop(HopCacheMiss, 3, -1) // must not panic
	tr.SetEngine("x")
	var tc *Tracer
	if i, s := tc.SampleBatch(32); i != -1 || s != nil {
		t.Fatal("nil tracer sampled")
	}
	tc.Finish(nil)
	if got := tc.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if st := tc.Stats(); st != (TracerStats{}) {
		t.Fatalf("nil tracer stats = %+v", st)
	}
	// Disabled tracer (every <= 0) behaves the same without a nil check.
	off := NewTracer(0, 8)
	if i, s := off.SampleBatch(100); i != -1 || s != nil {
		t.Fatal("disabled tracer sampled")
	}
}

func TestSampleBatchGrid(t *testing.T) {
	// every=4: sampled ordinals are 4, 8, 12, ... At most one per batch.
	tc := NewTracer(4, 16)
	// Batch of 4 covering ordinals 1..4: ordinal 4 is sampled, index 3.
	i, tr := tc.SampleBatch(4)
	if i != 3 || tr == nil {
		t.Fatalf("first batch: index %d trace %v", i, tr)
	}
	if tr.Seq != 4 {
		t.Fatalf("seq = %d, want 4", tr.Seq)
	}
	tc.Finish(tr)
	// Batch of 3 covering 5..7: no grid point.
	if i, tr := tc.SampleBatch(3); i != -1 || tr != nil {
		t.Fatalf("no-sample batch returned %d %v", i, tr)
	}
	// Batch of 2 covering 8..9: ordinal 8 sampled at index 0.
	i, tr = tc.SampleBatch(2)
	if i != 0 || tr == nil || tr.Seq != 8 {
		t.Fatalf("third batch: index %d trace %+v", i, tr)
	}
	tc.Finish(tr)
	// A huge batch samples exactly once.
	i, tr = tc.SampleBatch(1000)
	if tr == nil || tr.Seq != 12 || i != 2 {
		t.Fatalf("large batch: index %d trace %+v", i, tr)
	}
	tc.Finish(tr)
	st := tc.Stats()
	if st.Packets != 4+3+2+1000 || st.Sampled != 3 || st.Busy != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSampleEveryPacketAtOneInOne(t *testing.T) {
	tc := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		idx, tr := tc.SampleBatch(8)
		if tr == nil || idx != 0 {
			t.Fatalf("1-in-1 batch %d: index %d trace %v", i, idx, tr)
		}
		tc.Finish(tr)
	}
}

func TestTraceHopsAndSnapshot(t *testing.T) {
	tc := NewTracer(1, 8)
	_, tr := tc.SampleBatch(1)
	if tr == nil {
		t.Fatal("no sample at 1-in-1")
	}
	tr.SetEngine("stridebv-k4")
	tr.SetEngine("inner") // first writer wins
	tr.Hdr = packet.Header{SIP: 0xC0A80101, DIP: 0x0A000001, SP: 1234, DP: 80, Proto: 6}
	tr.AddHop(HopCacheMiss, 2, -1)
	tr.AddHop(HopStrideStage, 0, 17)
	tr.AddHop(HopStrideStage, 1, 9)
	tr.AddHop(HopPriorityEncode, 0, 42)
	tr.Result = 42
	tc.Finish(tr)

	traces := tc.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("snapshot has %d traces", len(traces))
	}
	got := traces[0]
	if got.Engine != "stridebv-k4" {
		t.Fatalf("engine = %q", got.Engine)
	}
	if got.Result != 42 || got.NHops != 4 {
		t.Fatalf("result=%d hops=%d", got.Result, got.NHops)
	}
	hops := got.HopSlice()
	if hops[0].Kind != HopCacheMiss || hops[1].Kind != HopStrideStage || hops[1].Detail != 17 {
		t.Fatalf("hops = %+v", hops)
	}
	if got.TotalNanos < 0 {
		t.Fatalf("total nanos = %d", got.TotalNanos)
	}
	out := got.String()
	for _, want := range []string{"stridebv-k4", "cache-miss", "stride-stage", "priority-encode", "192.168.1.1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace string missing %q:\n%s", want, out)
		}
	}
}

func TestTraceHopOverflowDrops(t *testing.T) {
	tc := NewTracer(1, 2)
	_, tr := tc.SampleBatch(1)
	for i := 0; i < MaxHops+5; i++ {
		tr.AddHop(HopStrideStage, i, 1)
	}
	if tr.NHops != MaxHops || tr.Dropped != 5 {
		t.Fatalf("nhops=%d dropped=%d", tr.NHops, tr.Dropped)
	}
	tc.Finish(tr)
	got := tc.Snapshot()[0]
	if !strings.Contains(got.String(), "dropped=5") {
		t.Fatal("dropped count not rendered")
	}
}

func TestTracerRingOverwriteKeepsNewest(t *testing.T) {
	tc := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		_, tr := tc.SampleBatch(1)
		tr.Result = i
		tc.Finish(tr)
	}
	traces := tc.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring snapshot has %d traces, want 4", len(traces))
	}
	// Newest first, and only the last 4 survive.
	for i, tr := range traces {
		if want := uint64(10 - i); tr.Seq != want {
			t.Fatalf("trace %d seq = %d, want %d", i, tr.Seq, want)
		}
	}
}

func TestTracerUnfinishedSlotInvisible(t *testing.T) {
	tc := NewTracer(1, 4)
	_, tr := tc.SampleBatch(1)
	tr.AddHop(HopEngine, 0, 7)
	if got := tc.Snapshot(); len(got) != 0 {
		t.Fatalf("in-flight trace visible: %d", len(got))
	}
	tc.Finish(tr)
	if got := tc.Snapshot(); len(got) != 1 {
		t.Fatalf("finished trace invisible: %d", len(got))
	}
}

func TestTracerBusySlotSkipped(t *testing.T) {
	// One slot, held open by an unfinished trace: the next sample must be
	// dropped (busy), not block or corrupt the writer's slot.
	tc := NewTracer(1, 1)
	_, tr := tc.SampleBatch(1)
	if tr == nil {
		t.Fatal("first sample failed")
	}
	if _, tr2 := tc.SampleBatch(1); tr2 != nil {
		t.Fatal("second sample acquired a busy slot")
	}
	if st := tc.Stats(); st.Busy != 1 || st.Sampled != 1 {
		t.Fatalf("stats = %+v", st)
	}
	tc.Finish(tr)
}

func TestTracerConcurrent(t *testing.T) {
	tc := NewTracer(8, 32)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range tc.Snapshot() {
					// A published trace must be internally consistent: every
					// recorded hop within bounds.
					if tr.NHops < 0 || tr.NHops > MaxHops {
						panic("torn trace read")
					}
				}
			}
		}()
	}
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				_, tr := tc.SampleBatch(4)
				if tr == nil {
					continue
				}
				tr.AddHop(HopCacheMiss, 0, -1)
				tr.AddHop(HopStrideStage, 1, 5)
				tr.Result = i
				tc.Finish(tr)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	st := tc.Stats()
	if st.Packets != 8*2000*4 {
		t.Fatalf("packets = %d", st.Packets)
	}
	if st.Sampled == 0 {
		t.Fatal("nothing sampled")
	}
}

func TestNilTracerSampleBatchZeroAlloc(t *testing.T) {
	var tc *Tracer
	if n := testing.AllocsPerRun(1000, func() { tc.SampleBatch(64) }); n != 0 {
		t.Fatalf("nil tracer SampleBatch allocates %.1f allocs/op", n)
	}
	off := NewTracer(0, 0)
	if n := testing.AllocsPerRun(1000, func() { off.SampleBatch(64) }); n != 0 {
		t.Fatalf("disabled tracer SampleBatch allocates %.1f allocs/op", n)
	}
}

func TestActiveTracerSampleZeroAlloc(t *testing.T) {
	tc := NewTracer(4, 16)
	if n := testing.AllocsPerRun(1000, func() {
		_, tr := tc.SampleBatch(16)
		if tr != nil {
			tr.AddHop(HopCacheMiss, 0, -1)
			tr.AddHop(HopStrideStage, 0, 3)
			tc.Finish(tr)
		}
	}); n != 0 {
		t.Fatalf("active tracer sample+hops allocates %.1f allocs/op", n)
	}
}

func BenchmarkTracerSampleBatch(b *testing.B) {
	names := map[int]string{0: "off", 1024: "every1024", 64: "every64", 1: "every1"}
	for _, every := range []int{0, 1024, 64, 1} {
		b.Run(names[every], func(b *testing.B) {
			tc := NewTracer(every, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, tr := tc.SampleBatch(64)
				if tr != nil {
					tr.AddHop(HopCacheMiss, 0, -1)
					tc.Finish(tr)
				}
			}
		})
	}
}
