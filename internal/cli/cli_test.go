package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadRuleSet(t *testing.T) {
	p := writeFile(t, "rules.txt", "@1.2.3.4/32 0.0.0.0/0 0 : 65535 80 : 80 tcp DROP\n")
	rs, err := LoadRuleSet(p)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("N = %d", rs.Len())
	}
	if _, err := LoadRuleSet(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeFile(t, "bad.txt", "not rules\n")
	if _, err := LoadRuleSet(bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadTraceTextAndBinary(t *testing.T) {
	text := writeFile(t, "t.txt", "1.2.3.4 5.6.7.8 1 2 6\n9.9.9.9 8.8.8.8 3 4 17\n")
	tr, err := LoadTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[1].Proto != 17 {
		t.Fatalf("text trace = %v", tr)
	}
	var buf bytes.Buffer
	if err := packet.WriteBinaryTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(t.TempDir(), "t.bin")
	if err := os.WriteFile(binPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr2, err := LoadTrace(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2) != 2 || tr2[0] != tr[0] {
		t.Fatalf("binary trace = %v", tr2)
	}
	empty := writeFile(t, "empty.txt", "# nothing\n")
	if _, err := LoadTrace(empty); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBuildEngineAllNames(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 24, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.8, Seed: 2})
	for _, name := range EngineNames() {
		eng, err := BuildEngine(rs, name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, h := range trace {
			if got, want := eng.Classify(h), rs.FirstMatch(h); got != want {
				t.Fatalf("%s: %d != %d on %s", name, got, want, h)
			}
		}
	}
	if _, err := BuildEngine(rs, "nope", 4); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("bad engine name not rejected: %v", err)
	}
	if _, err := BuildEngine(rs, "stridebv", 0); err == nil {
		t.Fatal("bad stride accepted")
	}
}

func TestEngineBuilderCurriesBuildEngine(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 16, Profile: ruleset.PrefixOnly, Seed: 40, DefaultRule: true})
	for _, name := range EngineNames() {
		build := EngineBuilder(name, 4)
		eng, err := build(rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.NumRules() != rs.Len() {
			t.Fatalf("%s: NumRules = %d, want %d", name, eng.NumRules(), rs.Len())
		}
		// The builder is reusable: a second ruleset builds a second engine.
		rs2 := ruleset.Generate(ruleset.GenConfig{N: 8, Profile: ruleset.PrefixOnly, Seed: 41, DefaultRule: true})
		eng2, err := build(rs2)
		if err != nil {
			t.Fatalf("%s rebuild: %v", name, err)
		}
		if eng2.NumRules() != rs2.Len() {
			t.Fatalf("%s rebuild: NumRules = %d, want %d", name, eng2.NumRules(), rs2.Len())
		}
	}
	if _, err := EngineBuilder("no-such-engine", 4)(rs); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

// BuildEngineOpts accepts "part-part-<sub>". A partition layer that queued
// sub-batches on a shared worker pool deadlocked here (every worker parked
// waiting on inner tasks queued behind it); searching inline, a nested
// engine is just a deeper call.
func TestNestedPartitionBatch(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.FirewallProfile, Seed: 7, DefaultRule: true})
	eng, err := BuildEngineOpts(rs, "part-part-stridebv", Options{Stride: 4, PrefixBits: 3})
	if err != nil {
		t.Fatal(err)
	}
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.8, Seed: 8})
	out := make([]int, len(hdrs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 200 {
			core.ClassifyBatchInto(eng, hdrs, out)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested partitioned ClassifyBatch did not return within 10s")
	}
	lin := core.NewLinear(rs)
	for i, h := range hdrs {
		if want := lin.Classify(h); out[i] != want {
			t.Fatalf("batch[%d] = %d, linear = %d for %s", i, out[i], want, h)
		}
	}
}

// TestClassifyBatchConcurrentEveryEngine: every engine the registry serves,
// and a partitioned TCAM, answers like the linear reference while four
// goroutines classify 64-packet batches through one instance — the
// concurrent use the serving layer makes of it. Each goroutine has its own
// slice of the trace, so an engine that shares lookup state between
// callers returns wrong answers here (and races under -race).
func TestClassifyBatchConcurrentEveryEngine(t *testing.T) {
	const goroutines, batch, perG = 4, 64, 512
	rs := ruleset.Generate(ruleset.GenConfig{N: 256, Profile: ruleset.FirewallProfile, Seed: 61, DefaultRule: true})
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: goroutines * perG, MatchFraction: 0.8, Seed: 62})
	want := make([]int, len(hdrs))
	for i, h := range hdrs {
		want[i] = rs.FirstMatch(h)
	}
	for _, name := range append(EngineNames(), "part-tcam") {
		eng, err := BuildEngine(rs, name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int, batch)
				for lo := g * perG; lo < (g+1)*perG; lo += batch {
					core.ClassifyBatchInto(eng, hdrs[lo:lo+batch], out)
					for i, got := range out {
						if got != want[lo+i] {
							t.Errorf("%s: goroutine %d packet %d: got %d, linear %d", name, g, lo+i, got, want[lo+i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
