package locksafe

import "sync"

type shard struct {
	mu      sync.Mutex
	entries []int
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

// twoPhase is flowcache.Cache.ClassifyBatchInto's shape since PR 21:
// probe under the lock, run the miss function with the lock released,
// and retake it to fill.
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

// leakedPhase replays the revert of PR 21's phase lock: the same body
// with the miss function called before the probe phase's Unlock. A miss
// callback that re-enters the cache then deadlocks on l.mu, which
// TestMissCallbackReentersCache sees only at its timeout.
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

// embedded locks through a promoted sync.Mutex method.
type embedded struct {
	sync.Mutex
	n int
}

func embeddedClassify(e *embedded) int {
	e.Lock()
	r := classify(e.n) // want `calls classify while holding lock e`
	e.Unlock()
	return r
}

// allowListed is the sanctioned escape for a deliberate call under lock.
func allowListed(s *shard) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return classify(5) //pclass:allow-lock single-threaded rebuild path
}
