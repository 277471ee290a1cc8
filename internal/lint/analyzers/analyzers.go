package analyzers

import "pktclass/internal/lint/analysis"

// All returns every pclasslint analyzer in the order findings are
// reported.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotPathAlloc,
		Immutability,
		LockSafe,
		PoolLifetime,
		AtomicPin,
		CowWrite,
	}
}
