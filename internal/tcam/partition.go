package tcam

import (
	"fmt"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Partitioned is the power-optimized TCAM organization the paper's related
// work describes ("Efforts have been put on reducing the power consumption
// of TCAM based solutions via partitioning so as to disable the TCAMs that
// are not relevant for a given search operation", Section II-B).
//
// A pre-decoder on IndexBits header bits selects one TCAM block; only that
// block and a shared overflow block (holding entries whose indexed bits are
// wildcarded or too widely replicated) are enabled for the search. Results
// are identical to a flat TCAM; only the number of *active* entries per
// search — the dominant dynamic-power term — changes.
type Partitioned struct {
	table
	// cfg
	indexOff  int
	indexBits int
	maxCopies int
	// blocks[idx] holds entry indices whose indexed bits can equal idx.
	blocks [][]int32
	// overflow holds entries searched on every lookup.
	overflow []int32
}

// PartitionConfig tunes the organization.
type PartitionConfig struct {
	// IndexOff/IndexBits select the header bits feeding the pre-decoder.
	// The destination IP prefix head is the conventional choice.
	IndexOff, IndexBits int
	// MaxCopies bounds per-entry replication: an entry matching more than
	// MaxCopies index values moves to the overflow block instead.
	MaxCopies int
}

// DefaultPartitionConfig indexes the top 4 bits of the destination IP.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{IndexOff: packet.DIPOff, IndexBits: 4, MaxCopies: 4}
}

// NewPartitioned builds the partitioned organization.
func NewPartitioned(ex *ruleset.Expanded, cfg PartitionConfig) (*Partitioned, error) {
	if cfg.IndexBits < 1 || cfg.IndexBits > 12 {
		return nil, fmt.Errorf("tcam: index width %d outside [1,12]", cfg.IndexBits)
	}
	if cfg.IndexOff < 0 || cfg.IndexOff+cfg.IndexBits > packet.W {
		return nil, fmt.Errorf("tcam: index bits [%d,%d) outside the %d-bit tuple",
			cfg.IndexOff, cfg.IndexOff+cfg.IndexBits, packet.W)
	}
	if cfg.MaxCopies < 1 {
		return nil, fmt.Errorf("tcam: MaxCopies %d < 1", cfg.MaxCopies)
	}
	p := &Partitioned{
		table:     newTable(ex),
		indexOff:  cfg.IndexOff,
		indexBits: cfg.IndexBits,
		maxCopies: cfg.MaxCopies,
		blocks:    make([][]int32, 1<<uint(cfg.IndexBits)),
	}
	for i, e := range ex.Entries {
		idxs := p.compatibleIndices(e)
		if len(idxs) > cfg.MaxCopies {
			p.overflow = append(p.overflow, int32(i))
			continue
		}
		for _, idx := range idxs {
			p.blocks[idx] = append(p.blocks[idx], int32(i))
		}
	}
	return p, nil
}

// compatibleIndices lists the pre-decoder values an entry can match.
func (p *Partitioned) compatibleIndices(e ruleset.Ternary) []int {
	var out []int
	for idx := 0; idx < 1<<uint(p.indexBits); idx++ {
		ok := true
		for b := 0; b < p.indexBits; b++ {
			i := p.indexOff + b
			bit := idx >> uint(p.indexBits-1-b) & 1
			if e.Mask.Bit(i) == 1 && e.Value.Bit(i) != bit {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, idx)
		}
	}
	return out
}

// index is the pre-decoder: the indexBits bits at indexOff of the key hi:lo.
// The three terms are the 128-bit left shift by indexOff, top word only — Go
// shifts by 64 or more (including the wrapped negative counts) yield zero,
// so exactly the terms that apply survive.
func (p *Partitioned) index(hi, lo uint64) int {
	off := uint(p.indexOff)
	v := hi<<off | lo>>(64-off) | lo<<(off-64)
	return int(v >> uint(64-p.indexBits))
}

// Name identifies the engine.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("tcam-partitioned-%db", p.indexBits)
}

// NumRules returns the original rule count.
func (p *Partitioned) NumRules() int { return p.numRules }

// Classify searches the selected block plus overflow and returns the
// highest-priority matching rule, or -1.
func (p *Partitioned) Classify(h packet.Header) int {
	hi, lo := h.Words()
	best := -1
	probe := func(entries []int32) {
		for _, j := range entries {
			if int(j) >= best && best >= 0 {
				// Entries are stored in ascending priority; once past the
				// current best nothing better can follow in this list.
				break
			}
			if p.rows[j].matches(hi, lo) {
				best = int(j)
				break
			}
		}
	}
	probe(p.blocks[p.index(hi, lo)])
	probe(p.overflow)
	if best < 0 {
		return -1
	}
	return int(p.parent[best])
}

// MultiMatch returns every matching rule in priority order. The selected
// block and the overflow list are both built in ascending entry order, so
// a single linear merge yields priority order directly — no post-hoc sort,
// no intermediate match list — and an entry present in both lists (or a
// rule replicated across entries) is consumed once before appendRule
// collapses entries to rules, so replication can never double-report.
func (p *Partitioned) MultiMatch(h packet.Header) []int {
	hi, lo := h.Words()
	blk := p.blocks[p.index(hi, lo)]
	ovf := p.overflow
	var out []int
	i, j := 0, 0
	for i < len(blk) || j < len(ovf) {
		var e int32
		switch {
		case j >= len(ovf) || (i < len(blk) && blk[i] < ovf[j]):
			e = blk[i]
			i++
		case i >= len(blk) || ovf[j] < blk[i]:
			e = ovf[j]
			j++
		default:
			// Equal indices: the same entry reached both lists; dedupe.
			e = blk[i]
			i++
			j++
		}
		if p.rows[e].matches(hi, lo) {
			out = p.appendRule(out, int(e))
		}
	}
	return out
}

// ActiveEntries returns how many entries a search with the given header
// enables — the dynamic-power driver.
func (p *Partitioned) ActiveEntries(h packet.Header) int {
	return len(p.blocks[p.index(h.Words())]) + len(p.overflow)
}

// MeanActiveEntries averages active entries over all pre-decoder values,
// weighting each block equally.
func (p *Partitioned) MeanActiveEntries() float64 {
	total := 0
	for _, b := range p.blocks {
		total += len(b)
	}
	return float64(total)/float64(len(p.blocks)) + float64(len(p.overflow))
}

// StoredEntries returns the total stored entries including replication
// (the memory cost of partitioning).
func (p *Partitioned) StoredEntries() int {
	total := len(p.overflow)
	for _, b := range p.blocks {
		total += len(b)
	}
	return total
}

// PowerSaving returns the ratio of a flat TCAM's active entries to this
// organization's mean — the factor by which search power drops.
func (p *Partitioned) PowerSaving() float64 {
	mean := p.MeanActiveEntries()
	if mean <= 0 {
		return 1
	}
	return float64(len(p.rows)) / mean
}

// String summarises the organization.
func (p *Partitioned) String() string {
	return fmt.Sprintf("%s{blocks=%d stored=%d overflow=%d saving=%.1fx}",
		p.Name(), len(p.blocks), p.StoredEntries(), len(p.overflow), p.PowerSaving())
}
