package analyzers_test

import (
	"testing"

	"pktclass/internal/lint/analyzers"
	"pktclass/internal/lint/linttest"
)

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, analyzers.HotPathAlloc, "hotpath")
}

func TestImmutability(t *testing.T) {
	// def must load first so use's DepFacts can see its annotations; the
	// defining package itself must stay clean (construction is allowed).
	linttest.Run(t, analyzers.Immutability, "immut/def", "immut/use")
}

func TestLockSafe(t *testing.T) {
	linttest.Run(t, analyzers.LockSafe, "locksafe")
}

func TestPoolLifetime(t *testing.T) {
	// def loads first so use's DepFacts sees the pooled/releases
	// annotations; def also carries the in-package sync.Pool cases.
	linttest.Run(t, analyzers.PoolLifetime, "pool/def", "pool/use")
}

func TestAtomicPin(t *testing.T) {
	linttest.Run(t, analyzers.AtomicPin, "pin")
}

func TestCowWrite(t *testing.T) {
	linttest.Run(t, analyzers.CowWrite, "cow/def", "cow/use")
}

func TestAllRegistered(t *testing.T) {
	want := []string{"hotpathalloc", "immutability", "locksafe", "poollifetime", "atomicpin", "cowwrite"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d %v", len(all), len(want), want)
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil || a.SuppressKey == "" {
			t.Errorf("analyzer %s incompletely declared", a.Name)
		}
	}
}
