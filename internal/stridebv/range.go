package stridebv

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pktclass/internal/bitvec"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// RangeEngine is the StrideBV variant with explicit range-search modules —
// the extension the StrideBV line of work proposed to avoid range-to-prefix
// expansion entirely (the paper's Section II notes a single rule can blow up
// to 4(w-1)^2 ternary entries; this module keeps Ne == N).
//
// The prefix-matchable 72 bits (SIP, DIP, protocol) go through ordinary
// k-bit stride stages — the embedded Memory, one bit per rule; each port
// field gets one dedicated range stage that compares the header port
// against the N stored [lo,hi] bounds. In hardware the comparators run in
// parallel and emit an N-bit vector ANDed into the pipeline; here they are
// evaluated only on the bits that survive the stride stages, which is the
// same AND.
type RangeEngine struct {
	Memory
	// ports[j] is rule j's source and destination port bounds: the range
	// modules' registers.
	ports [][2]ruleset.PortRange
}

// prefixBits is the width of the stride-searchable portion (SIP+DIP+proto).
const prefixBits = packet.SIPBits + packet.DIPBits + packet.ProtoBits // 72

// packPrefix packs SIP|DIP|proto values — a header's fields, or a rule's
// values or care masks — MSB first like packet.Key.
func packPrefix(sip, dip uint32, proto uint8) (k [prefixBits / 8]byte) {
	binary.BigEndian.PutUint32(k[0:], sip)
	binary.BigEndian.PutUint32(k[4:], dip)
	k[8] = proto
	return k
}

// NewRange builds a range-module StrideBV engine with stride k.
func NewRange(rs *ruleset.RuleSet, k int) (*RangeEngine, error) {
	var val, mask [prefixBits / 8]byte
	m, err := BuildMemory(prefixBits, k, rs.Len(), func(j int) ([]byte, []byte, bool) {
		r := &rs.Rules[j]
		val = packPrefix(r.SIP.Value, r.DIP.Value, r.Proto.Value)
		mask = packPrefix(r.SIP.Mask(), r.DIP.Mask(), r.Proto.Mask)
		return val[:], mask[:], true
	})
	if err != nil {
		return nil, err
	}
	e := &RangeEngine{Memory: m, ports: make([][2]ruleset.PortRange, rs.Len())}
	for j, r := range rs.Rules {
		e.ports[j] = [2]ruleset.PortRange{r.SP, r.DP}
	}
	return e, nil
}

// Name identifies the engine.
func (e *RangeEngine) Name() string { return fmt.Sprintf("stridebv-range-k%d", e.k) }

// NumRules returns N; the vector width equals it (no expansion).
func (e *RangeEngine) NumRules() int { return e.ne }

// Stages returns the total pipeline depth: stride stages plus the two
// range-module stages.
func (e *RangeEngine) Stages() int { return e.stages + 2 }

// MemoryBits counts stage memory plus the range modules' bound registers
// (4 × 16 bits per rule).
func (e *RangeEngine) MemoryBits() int { return e.Memory.MemoryBits() + 4*16*e.ne }

// inRange is the range modules' output for one surviving word of the
// stride stages: word (entries 64w..64w+63) with every rule whose port
// bounds exclude the header cleared.
//
//pclass:hotpath
func (e *RangeEngine) inRange(w int, word uint64, h packet.Header) uint64 {
	for rest := word; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		if p := &e.ports[w<<6+b]; !p[0].Matches(h.SP) || !p[1].Matches(h.DP) {
			word &^= 1 << uint(b)
		}
	}
	return word
}

// firstMatch returns the first rule whose prefix part and port ranges all
// match, or -1: the first survivor of the stride stages that is in range
// wins, and only survivors are ever tested.
//
//pclass:hotpath
func (e *RangeEngine) firstMatch(h packet.Header, sc *scratchState) int {
	key := packPrefix(h.SIP, h.DIP, h.Proto)
	e.stridesInto(key[:], sc.addrs)
	e.candidates(sc.addrs, sc.cand)
	for w, word := e.nextMatch(sc.addrs, sc.cand); w >= 0; w, word = e.nextMatch(sc.addrs, sc.cand) {
		if word = e.inRange(w, word, h); word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// matchInto computes the match vector into sc.acc and returns it.
func (e *RangeEngine) matchInto(h packet.Header, sc *scratchState) bitvec.Vector {
	key := packPrefix(h.SIP, h.DIP, h.Proto)
	e.stridesInto(key[:], sc.addrs)
	acc := e.Memory.matchInto(sc)
	words := acc.Words()
	for w, word := range words {
		words[w] = e.inRange(w, word, h)
	}
	return acc
}

// MatchVector computes the final multi-match vector for a header. The
// returned vector is freshly allocated and owned by the caller.
func (e *RangeEngine) MatchVector(h packet.Header) bitvec.Vector {
	sc := e.getScratch()
	v := e.matchInto(h, sc).Clone()
	e.putScratch(sc)
	return v
}

// Classify returns the highest-priority matching rule index, or -1.
//
//pclass:hotpath
func (e *RangeEngine) Classify(h packet.Header) int {
	sc := e.getScratch()
	r := e.firstMatch(h, sc)
	e.putScratch(sc)
	return r
}

// ClassifyBatch classifies hdrs into out (the core.BatchClassifier fast
// path), reusing one scratch workspace for the whole batch. Safe for
// concurrent use.
//
//pclass:hotpath
func (e *RangeEngine) ClassifyBatch(hdrs []packet.Header, out []int) {
	sc := e.getScratch()
	for i, h := range hdrs {
		out[i] = e.firstMatch(h, sc)
	}
	e.putScratch(sc)
}

// MultiMatch returns all matching rule indices in priority order.
func (e *RangeEngine) MultiMatch(h packet.Header) []int {
	sc := e.getScratch()
	r := e.matchInto(h, sc).SetBits()
	e.putScratch(sc)
	return r
}

// String summarises the configuration.
func (e *RangeEngine) String() string {
	return fmt.Sprintf("%s{strideStages=%d rangeStages=2 rules=%d mem=%dKbit}",
		e.Name(), e.stages, e.ne, e.MemoryBits()/1024)
}
