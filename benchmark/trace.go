package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/partition"
	"pktclass/internal/tcam"
)

// The span layers. A span is recorded from the benchmark's side of each
// layer boundary: around the call into the layer's public function.
const (
	lServe        = iota // root: one ClassifySteered call
	lStrideBV            // stridebv.Engine.ClassifyBatch under the service
	lTCAM                // tcam.Behavioral.ClassifyBatch under the service
	lPartition           // partition.Engine.ClassifyBatch under the service
	lSub                 // a sub-engine's ClassifyBatch under the partition layer
	lHand                // root of pass B: one batch through the hand-composed layers
	lKeyHash             // Key + Hash + SteerWorker over a batch
	lFlowcache           // flowcache.Private.ClassifyBatchPrehashedInto
	lEngine              // pass B's engine call: the cache's miss callback, or the whole sub-batch with the cache off
	lStrides             // Key.StridesInto over a block of keys
	lMatchVector         // stridebv.Engine.MatchVector over a block
	lPenc                // penc.Encode over a block
	lLinear              // core.Linear.ClassifyBatch over a block
	lApplyRuleSet        // update.ApplyToRuleSet, one swap
	lDeltas              // update.Deltas, one swap
	lApplyDeltas         // update.ApplyDeltasToEngine, one swap
	lVerifyScoped        // update.VerifyDeltasScoped, one swap
	numLayers
)

var layerNames = [numLayers]string{
	"serve.classify_steered", "stridebv.classify_batch", "tcam.classify_batch",
	"partition.classify_batch", "partition.sub.classify_batch",
	"bench.hand_batch", "packet.key_hash", "flowcache.classify_batch", "engine.classify_batch",
	"packet.strides_into", "stridebv.match_vector", "penc.encode", "core.linear",
	"update.apply_to_ruleset", "update.deltas", "update.apply_deltas_to_engine", "update.verify_deltas_scoped",
}

// span is one timed call: its layer, the span that caused it, the packets
// (or ops) it covered, and when it ran. Spans of one batch share the batch's
// root, reachable through parent.
type span struct {
	layer      uint8
	parent     int32 // index into the recorder, -1 for a root
	n          int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory, in a slice sized once: recording a span
// is one atomic add and one store, from any goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	// root is the root span in flight. The traced pass keeps exactly one
	// batch in flight, so every engine span recorded meanwhile is its child.
	root atomic.Int64
	// on gates recording, so one wrapped service gives both the untraced
	// baseline and the traced windows.
	on atomic.Bool
	// sub marks flat engines as sub-engines of a partition layer.
	sub bool
}

func newRecorder(capacity int, sub bool) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity), sub: sub}
}

// full leaves headroom for the children of the batch in flight.
func (r *recorder) full() bool { return int(r.n.Load()) > len(r.spans)-512 }

func (r *recorder) count() int { return min(int(r.n.Load()), len(r.spans)) }

func (r *recorder) add(layer uint8, parent int, t0, t1 time.Time, n int) int {
	i := int(r.n.Add(1) - 1)
	if i >= len(r.spans) {
		return -1
	}
	r.spans[i] = span{layer: layer, parent: int32(parent), n: int32(n), start: int64(t0.Sub(r.epoch)), end: int64(t1.Sub(r.epoch))}
	return i
}

// close ends, now, a span that add opened with a placeholder end. Single
// goroutine only: pass B uses it for spans whose children must name them.
func (r *recorder) close(i int) {
	if i >= 0 {
		r.spans[i].end = int64(time.Since(r.epoch))
	}
}

// beginRoot reserves the root span's slot before the call, so children
// recorded during the call can name it.
func (r *recorder) beginRoot() int {
	i := int(r.n.Add(1) - 1)
	r.root.Store(int64(i))
	return i
}

func (r *recorder) endRoot(i int, t0, t1 time.Time, n int) {
	if i < len(r.spans) {
		r.spans[i] = span{layer: lServe, parent: -1, n: int32(n), start: int64(t0.Sub(r.epoch)), end: int64(t1.Sub(r.epoch))}
	}
}

// spanEngine decorates an engine so each ClassifyBatch records a span.
type spanEngine struct {
	core.Engine
	batch core.BatchClassifier
	rec   *recorder
	layer uint8
}

func (e *spanEngine) ClassifyBatch(hdrs []packet.Header, out []int) {
	if !e.rec.on.Load() {
		e.batch.ClassifyBatch(hdrs, out)
		return
	}
	t0 := time.Now()
	e.batch.ClassifyBatch(hdrs, out)
	e.rec.add(e.layer, int(e.rec.root.Load()), t0, time.Now(), len(hdrs))
}

// wrap is the recorder's wrapFunc.
func (r *recorder) wrap(eng core.Engine) core.Engine {
	layer := uint8(lStrideBV)
	switch eng.(type) {
	case *partition.Engine:
		layer = lPartition
	case *tcam.Behavioral:
		layer = lTCAM
	default:
		if r.sub {
			layer = lSub
		}
	}
	return &spanEngine{Engine: eng, batch: eng.(core.BatchClassifier), rec: r, layer: layer}
}

// covered is the length of the union of intervals (start, end pairs); it
// reorders iv.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// layerSums are per-layer totals over a range of spans, plus the self
// times that need the span tree: a span's self time is its duration minus
// the union of its children.
type layerSums struct {
	ns, n, calls [numLayers]int64
	serveSelf    int64 // root spans minus the union of their engine spans
	partSelf     int64 // partition spans (union per batch) minus the union of their sub-engine spans
	cacheSelf    int64 // pass B flowcache spans minus their miss-callback engine spans
}

// sum walks spans [from, to). Pass A's spans come in batches: a root, then
// its children, because only one batch is ever in flight. It also points
// each sub-engine span at the partition span that contains it.
func (r *recorder) sum(from, to int) *layerSums {
	s := new(layerSums)
	var engines, subs, parts [][2]int64
	flush := func(root int) {
		if root >= 0 {
			s.serveSelf += r.spans[root].end - r.spans[root].start - covered(engines)
			s.partSelf += covered(parts) - covered(subs)
		}
		engines, subs, parts = engines[:0], subs[:0], parts[:0]
	}
	root := -1
	for i := from; i < to; i++ {
		sp := &r.spans[i]
		s.ns[sp.layer] += sp.end - sp.start
		s.n[sp.layer] += int64(sp.n)
		s.calls[sp.layer]++
		switch sp.layer {
		case lServe:
			flush(root)
			root = i
		case lStrideBV, lTCAM:
			engines = append(engines, [2]int64{sp.start, sp.end})
		case lPartition:
			engines = append(engines, [2]int64{sp.start, sp.end})
			parts = append(parts, [2]int64{sp.start, sp.end})
		case lSub:
			subs = append(subs, [2]int64{sp.start, sp.end})
		case lEngine:
			if p := sp.parent; p >= 0 && r.spans[p].layer == lFlowcache {
				s.cacheSelf -= sp.end - sp.start
			}
		case lFlowcache:
			s.cacheSelf += sp.end - sp.start
		}
	}
	flush(root)
	// A sub-engine span is recorded before the partition span that caused
	// it ends, so its parent is only known now.
	for i := from; i < to; i++ {
		if r.spans[i].layer != lSub {
			continue
		}
		for j := i + 1; j < to && r.spans[j].layer != lServe; j++ {
			if p := &r.spans[j]; p.layer == lPartition && p.start <= r.spans[i].start && r.spans[i].end <= p.end {
				r.spans[i].parent = int32(j)
				break
			}
		}
	}
	return s
}

func (s *layerSums) perPkt(layer int) float64 {
	if s.n[layer] == 0 {
		return 0
	}
	return float64(s.ns[layer]) / float64(s.n[layer])
}

// maxSpansWritten bounds the trace file; the per-layer numbers use every
// span recorded.
const maxSpansWritten = 50000

type spanJSON struct {
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	N      int32  `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write dumps the recorded spans to dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string) error {
	n := r.count()
	out := struct {
		Workload string     `json:"workload"`
		Recorded int        `json:"recorded"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Recorded: n}
	for i := 0; i < min(n, maxSpansWritten); i++ {
		sp := r.spans[i]
		out.Spans = append(out.Spans, spanJSON{ID: i, Parent: sp.parent, Name: layerNames[sp.layer], N: sp.n, Start: sp.start, End: sp.end})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
