// Package floorplan models FPGA placement at the granularity the paper's
// timing discussion needs: a 2D die of slice cells with fixed BRAM columns,
// a netlist of rectangular blocks connected by nets, and two placement
// modes —
//
//   - Automatic: the order-agnostic packing a vanilla place-and-route run
//     produces. Blocks are packed into the design's bounding region without
//     pipeline-order awareness, so consecutive pipeline stages can land far
//     apart and the critical register-to-register net spans a large fraction
//     of the used region.
//   - Floorplanned: the PlanAhead-style manual floorplan of the paper's
//     Section V-A — blocks laid out in pipeline order along a serpentine,
//     then refined by simulated annealing on the critical net.
//
// The output of placement is geometric: per-net Manhattan length plus the
// source/sink block spans (a wide bus leaving a tall block pays for the
// block's internal fan-in). The fpga package turns lengths into delay.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Die is the placement target.
type Die struct {
	Cols int // slice columns
	Rows int // slice rows
	// BRAMColumns are the x coordinates of block RAM columns. A 36 Kb BRAM
	// occupies BRAMRowSpan slice rows within its column.
	BRAMColumns []int
	BRAMRowSpan int // slice rows per BRAM block (5 on Virtex-7)
	// Utilization is the packing density target; the used region is sized
	// as designArea/Utilization.
	Utilization float64
}

// NewDie builds a die with the given slice capacity, aspect ratio rows:cols
// of roughly 3:2, and evenly spread BRAM columns sized to hold bramBlocks.
func NewDie(slices, bramBlocks int) Die {
	rows := int(math.Round(math.Sqrt(float64(slices) * 1.5)))
	cols := (slices + rows - 1) / rows
	d := Die{Rows: rows, Cols: cols, BRAMRowSpan: 5, Utilization: 0.7}
	if bramBlocks > 0 {
		perCol := rows / d.BRAMRowSpan
		nCols := (bramBlocks + perCol - 1) / perCol
		if nCols < 1 {
			nCols = 1
		}
		for i := 0; i < nCols; i++ {
			// Spread columns evenly, avoiding the exact die edge.
			x := (i*2 + 1) * cols / (nCols * 2)
			d.BRAMColumns = append(d.BRAMColumns, x)
		}
	}
	return d
}

// BRAMCapacity returns how many BRAM blocks the die holds.
func (d Die) BRAMCapacity() int {
	return len(d.BRAMColumns) * (d.Rows / d.BRAMRowSpan)
}

// Block is a placeable unit: a pipeline stage, an entry cluster, a priority
// encoder level. Slices is its logic area; BRAMs is the number of 36 Kb
// blocks its memory needs (0 for pure logic / distributed-RAM blocks, whose
// memory is inside Slices).
type Block struct {
	Name   string
	Slices int
	BRAMs  int
}

// Net connects two blocks. Width is the bus width in bits; Critical marks
// nets on the clock-limiting register-to-register path (stage-to-stage
// buses, broadcast nets).
type Net struct {
	From, To int // block indices
	Width    int
	Critical bool
	// Fanout is the number of physical loads; 1 for point-to-point buses,
	// N for a broadcast (the TCAM search-key net).
	Fanout int
}

// Netlist is the placement input.
type Netlist struct {
	Blocks []Block
	Nets   []Net
}

// AddBlock appends a block and returns its index.
func (n *Netlist) AddBlock(b Block) int {
	n.Blocks = append(n.Blocks, b)
	return len(n.Blocks) - 1
}

// Connect appends a net.
func (n *Netlist) Connect(net Net) {
	if net.Fanout < 1 {
		net.Fanout = 1
	}
	n.Nets = append(n.Nets, net)
}

// TotalSlices sums block logic area.
func (n *Netlist) TotalSlices() int {
	t := 0
	for _, b := range n.Blocks {
		t += b.Slices
	}
	return t
}

// TotalBRAMs sums block RAM demand.
func (n *Netlist) TotalBRAMs() int {
	t := 0
	for _, b := range n.Blocks {
		t += b.BRAMs
	}
	return t
}

// Mode selects the placement strategy.
type Mode int

const (
	// Automatic models default place-and-route (no floorplanning).
	Automatic Mode = iota
	// Floorplanned models PlanAhead-style pipeline-aware floorplanning.
	Floorplanned
)

func (m Mode) String() string {
	if m == Floorplanned {
		return "floorplanned"
	}
	return "automatic"
}

// Placement is the geometric result.
type Placement struct {
	Die     Die
	Netlist *Netlist
	Mode    Mode
	// X, Y are block center coordinates in slice units.
	X, Y []float64
	// SpanX, SpanY are block extents (width/height) in slice units,
	// including the vertical stripe a block's BRAMs occupy.
	SpanX, SpanY []float64
	// NetLength[i] is the estimated routed length of Nets[i]: center
	// Manhattan distance plus half the endpoint spans.
	NetLength []float64
}

// Place computes a placement of the netlist on the die.
func Place(nl *Netlist, die Die, mode Mode, seed int64) (*Placement, error) {
	if len(nl.Blocks) == 0 {
		return nil, fmt.Errorf("floorplan: empty netlist")
	}
	if nl.TotalSlices() > die.Cols*die.Rows {
		return nil, fmt.Errorf("floorplan: design needs %d slices, die has %d",
			nl.TotalSlices(), die.Cols*die.Rows)
	}
	if nl.TotalBRAMs() > die.BRAMCapacity() {
		return nil, fmt.Errorf("floorplan: design needs %d BRAMs, die has %d",
			nl.TotalBRAMs(), die.BRAMCapacity())
	}
	p := &Placement{
		Die: die, Netlist: nl, Mode: mode,
		X: make([]float64, len(nl.Blocks)), Y: make([]float64, len(nl.Blocks)),
		SpanX: make([]float64, len(nl.Blocks)), SpanY: make([]float64, len(nl.Blocks)),
	}
	p.computeSpans()
	region := p.usedRegion()
	order := make([]int, len(nl.Blocks))
	for i := range order {
		order[i] = i
	}
	if mode == Automatic {
		// Order-agnostic packing: deterministic scramble of block order.
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	p.serpentine(order, region)
	if mode == Floorplanned {
		p.anneal(seed, region)
	}
	p.snapBRAM()
	p.computeNetLengths()
	return p, nil
}

// computeSpans sizes each block: logic as a near-square rectangle; BRAM
// demand as a vertical stripe (BRAMRowSpan rows per block, column-major).
func (p *Placement) computeSpans() {
	die := p.Die
	for i, b := range p.Netlist.Blocks {
		side := math.Sqrt(float64(b.Slices) / die.Utilization)
		if side < 1 {
			side = 1
		}
		sx, sy := side, side
		if b.BRAMs > 0 {
			perCol := die.Rows / die.BRAMRowSpan
			cols := (b.BRAMs + perCol - 1) / perCol
			rowsUsed := b.BRAMs
			if rowsUsed > perCol {
				rowsUsed = perCol
			}
			// The block's BRAMs stack vertically in a column, but the
			// Ne-bit word is bit-sliced: each 36-bit group routes to its
			// nearest logic, and the gather into the next stage register
			// is pipelined locally, so only a fraction of the physical
			// stripe height appears on the critical net.
			bramH := float64(rowsUsed*die.BRAMRowSpan) / 4
			bramW := 2 * float64(cols)
			if bramH > sy {
				sy = bramH
			}
			sx += bramW
		}
		p.SpanX[i], p.SpanY[i] = sx, sy
	}
}

// usedRegion returns the side length of the square region the design packs
// into at the die utilization target, capped by the die.
func (p *Placement) usedRegion() float64 {
	area := float64(p.Netlist.TotalSlices()) / p.Die.Utilization
	side := math.Sqrt(area)
	if side < 4 {
		side = 4
	}
	if side > float64(p.Die.Cols) {
		side = float64(p.Die.Cols)
	}
	if side > float64(p.Die.Rows) {
		side = float64(p.Die.Rows)
	}
	return side
}

// serpentine lays blocks in the given order along a boustrophedon path
// inside the used region.
func (p *Placement) serpentine(order []int, region float64) {
	x, y := 0.0, 0.0
	rowH := 0.0
	dir := 1.0
	for _, i := range order {
		w, h := p.SpanX[i], p.SpanY[i]
		if (dir > 0 && x+w > region) || (dir < 0 && x-w < 0) {
			y += rowH
			rowH = 0
			dir = -dir
			if dir > 0 {
				x = 0
			} else {
				x = region
			}
		}
		if dir > 0 {
			p.X[i] = x + w/2
			x += w
		} else {
			p.X[i] = x - w/2
			x -= w
		}
		p.Y[i] = y + h/2
		if h > rowH {
			rowH = h
		}
	}
}

// anneal refines the floorplanned placement by swapping block positions to
// minimize the critical (maximum) net length, with total wirelength as a
// tiebreaker — the objective a human floorplanner pursues in PlanAhead.
func (p *Placement) anneal(seed int64, region float64) {
	rng := rand.New(rand.NewSource(seed + 1))
	n := len(p.Netlist.Blocks)
	if n < 2 {
		return
	}
	cost := func() (float64, float64) {
		p.computeNetLengths()
		maxC, total := 0.0, 0.0
		for i, net := range p.Netlist.Nets {
			l := p.NetLength[i]
			total += l * float64(net.Width)
			if net.Critical && l > maxC {
				maxC = l
			}
		}
		return maxC, total
	}
	curC, curT := cost()
	bestC, bestT := curC, curT
	bestX := append([]float64(nil), p.X...)
	bestY := append([]float64(nil), p.Y...)
	temp := region / 2
	const iters = 4000
	for it := 0; it < iters; it++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p.X[i], p.X[j] = p.X[j], p.X[i]
		p.Y[i], p.Y[j] = p.Y[j], p.Y[i]
		c, tw := cost()
		accept := c < curC || (c == curC && tw < curT)
		if !accept && temp > 0 {
			delta := (c - curC) + (tw-curT)/1e4
			if delta < temp*rng.ExpFloat64()/8 {
				accept = true
			}
		}
		if accept {
			curC, curT = c, tw
			if c < bestC || (c == bestC && tw < bestT) {
				bestC, bestT = c, tw
				copy(bestX, p.X)
				copy(bestY, p.Y)
			}
		} else {
			p.X[i], p.X[j] = p.X[j], p.X[i]
			p.Y[i], p.Y[j] = p.Y[j], p.Y[i]
		}
		temp *= 0.999
	}
	// Restore the best placement seen, not wherever the walk ended.
	copy(p.X, bestX)
	copy(p.Y, bestY)
	p.computeNetLengths()
}

// snapBRAM pulls BRAM-bearing blocks horizontally to their nearest BRAM
// column: their memory physically lives there regardless of where the logic
// was placed, and the residual distance becomes net length.
func (p *Placement) snapBRAM() {
	if len(p.Die.BRAMColumns) == 0 {
		return
	}
	cols := make([]float64, len(p.Die.BRAMColumns))
	for i, c := range p.Die.BRAMColumns {
		cols[i] = float64(c)
	}
	sort.Float64s(cols)
	for i, b := range p.Netlist.Blocks {
		if b.BRAMs == 0 {
			continue
		}
		// Distance from logic center to nearest BRAM column adds to the
		// block's horizontal span (memory<->logic wiring).
		x := p.X[i]
		best := math.Abs(cols[0] - x)
		for _, c := range cols[1:] {
			if d := math.Abs(c - x); d < best {
				best = d
			}
		}
		p.SpanX[i] += best
	}
}

// computeNetLengths fills NetLength.
func (p *Placement) computeNetLengths() {
	if p.NetLength == nil {
		p.NetLength = make([]float64, len(p.Netlist.Nets))
	}
	for i, net := range p.Netlist.Nets {
		dx := math.Abs(p.X[net.From] - p.X[net.To])
		dy := math.Abs(p.Y[net.From] - p.Y[net.To])
		span := (p.SpanX[net.From] + p.SpanY[net.From] + p.SpanX[net.To] + p.SpanY[net.To]) / 4
		p.NetLength[i] = dx + dy + span
	}
}

// CriticalLength returns the longest critical-net length.
func (p *Placement) CriticalLength() float64 {
	max := 0.0
	for i, net := range p.Netlist.Nets {
		if net.Critical && p.NetLength[i] > max {
			max = p.NetLength[i]
		}
	}
	return max
}

// TotalWirelength returns the width-weighted total routed length, the
// congestion proxy the timing model consumes.
func (p *Placement) TotalWirelength() float64 {
	t := 0.0
	for i, net := range p.Netlist.Nets {
		t += p.NetLength[i] * float64(net.Width)
	}
	return t
}

// MaxFanout returns the largest net fanout in the design.
func (p *Placement) MaxFanout() int {
	max := 1
	for _, net := range p.Netlist.Nets {
		if net.Fanout > max {
			max = net.Fanout
		}
	}
	return max
}
