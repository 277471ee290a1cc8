package locksafe

import "sync"

type shard struct {
	mu      sync.Mutex
	entries []int
}

type cache struct {
	shards []shard
}

type counters struct {
	hits int
	mu   sync.RWMutex
}

// byValue passes a lock-bearing struct by value.
func byValue(s shard) int { // want `passes .*shard by value; it contains sync\.Mutex`
	return len(s.entries)
}

// valueReturn returns a lock-bearing struct by value.
func valueReturn() counters { // want `passes counters by value; it contains sync\.RWMutex`
	return counters{}
}

// copies dereferences and ranges over lock-bearing values.
func copies(c *cache, s *shard) {
	local := *s // want `assignment copies a value containing sync\.Mutex`
	_ = local
	for _, sh := range c.shards { // want `range value copies a value containing sync\.Mutex`
		_ = sh
	}
	for i := range c.shards { // ranging by index is the fix
		c.shards[i].mu.Lock()
		c.shards[i].mu.Unlock()
	}
}

// deferLoop holds every shard's lock until function return.
func deferLoop(c *cache) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		defer s.mu.Unlock() // want `defer s\.mu\.Unlock\(\) inside a loop`
	}
}

func classify(v int) int      { return v }
func classifyBatch(v int) int { return v }

// lockedClassify calls the engine while holding a shard lock.
func lockedClassify(s *shard) int {
	s.mu.Lock()
	r := classify(1) // want `calls classify while holding lock s\.mu`
	s.mu.Unlock()
	r += classify(2) // after the unlock: fine
	return r
}

// deferredClassify holds the lock for the whole function body.
func deferredClassify(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return classifyBatch(3) // want `calls classifyBatch while holding lock s\.mu`
}

// table stands in for the single-writer structure a locked wrapper guards.
type table struct{ entries []int }

func (t *table) probe(n int) int { return len(t.entries) - n }
func (t *table) fill(m int)      { t.entries = t.entries[:m] }

type locked struct {
	mu sync.Mutex
	t  *table
}

// twoPhase probes under the lock, runs the miss function with the lock
// released, and retakes it to fill.
func twoPhase(l *locked, n int, classifyMisses func(int)) {
	l.mu.Lock()
	m := l.t.probe(n)
	l.mu.Unlock()
	if m == 0 {
		return
	}
	classifyMisses(m) // between the two critical sections: fine
	l.mu.Lock()
	l.t.fill(m)
	l.mu.Unlock()
}

// leakedPhase is the same body with the miss function called before the
// probe phase's Unlock.
func leakedPhase(l *locked, n int, classifyMisses func(int)) {
	l.mu.Lock()
	m := l.t.probe(n)
	if m == 0 {
		l.mu.Unlock()
		return
	}
	classifyMisses(m) // want `calls classifyMisses while holding lock l\.mu`
	l.t.fill(m)
	l.mu.Unlock()
}

// branchClassify takes the lock inside one branch only.
func branchClassify(s *shard, b bool) int {
	if b {
		s.mu.Lock()
		s.mu.Unlock()
	}
	return classify(4) // lock released in every path: fine
}

// allowListed is the sanctioned escape for a deliberate call under lock.
func allowListed(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return classify(5) //pclass:allow-lock single-threaded rebuild path
}
