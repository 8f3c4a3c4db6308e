package difftest

import (
	"errors"
	"fmt"
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/rng"
)

// The reference engines: straightforward stamp-array implementations of
// COBRA and BIPS, written for clarity rather than speed — the
// specification the registry engines are pinned against. Each implements
// process.Process and process.Reacher directly.
//
// Both draw in the round kernel's stream layout: each Step spends one
// Uint64 of the trial generator as the round seed, then walks its
// active set (cobra, in first-push order) or candidate list (bips, in
// ascending vertex order) in process.KernelChunk blocks, drawing block c
// from rng.NewStream(roundSeed, c). The layout is independent of any
// worker count, so the references ignore Config.KernelWorkers.

// chunkStream returns the generator the i-th entry of a round's active
// set or candidate list draws from: cur, reseeded to the next block's
// stream whenever i starts a new process.KernelChunk block.
func chunkStream(cur *rng.Rand, roundSeed uint64, i int) *rng.Rand {
	if i%process.KernelChunk == 0 {
		return rng.NewStream(roundSeed, uint64(i/process.KernelChunk))
	}
	return cur
}

// newReferenceConfig validates what the registry factories validate and
// resolves the branching default.
func newReferenceConfig(g *graph.Graph, cfg process.Config) (process.Branching, error) {
	if g == nil || g.N() == 0 {
		return process.Branching{}, errors.New("difftest: empty graph")
	}
	if g.MinDegree() == 0 {
		return process.Branching{}, errors.New("difftest: graph has an isolated vertex; processes are undefined")
	}
	br := cfg.Branching
	if br == (process.Branching{}) {
		br = process.DefaultBranching
	}
	return br, br.Validate()
}

// NewReferenceCobra returns the reference COBRA engine: at every round
// each vertex of the active set C_t pushes to K random neighbours (plus
// one with probability Rho), chosen uniformly with replacement; C_{t+1}
// is the set of push targets (duplicates coalesce). Done when every
// vertex has been active at least once.
func NewReferenceCobra(g *graph.Graph, cfg process.Config) (process.Process, error) {
	br, err := newReferenceConfig(g, cfg)
	if err != nil {
		return nil, err
	}
	return &refCobra{
		g:            g,
		branching:    br,
		obs:          cfg.Observer,
		visitedStamp: make([]uint32, g.N()),
		nextStamp:    make([]uint32, g.N()),
	}, nil
}

type refCobra struct {
	g         *graph.Graph
	branching process.Branching
	obs       process.RoundObserver

	cur, next []int32
	// Epoch-stamped membership sets: a vertex is visited iff
	// visitedStamp[v] == epoch (epoch bumps per Reset), and in the next
	// frontier iff nextStamp[v] == stepEpoch (stepEpoch bumps per Step).
	visitedStamp []uint32
	nextStamp    []uint32
	epoch        uint32
	stepEpoch    uint32

	round        int
	visitedCount int
	transmitted  int64
}

// Reset starts a run from C_0 = starts; starts count as visited at round 0.
func (c *refCobra) Reset(starts ...int32) error {
	if len(starts) == 0 {
		return errors.New("difftest: COBRA needs a non-empty start set")
	}
	c.epoch++
	if c.epoch == 0 { // stamp wrap-around: flush stale stamps
		clear(c.visitedStamp)
		c.epoch = 1
	}
	c.cur = c.cur[:0]
	c.round = 0
	c.visitedCount = 0
	c.transmitted = 0
	for _, s := range starts {
		if s < 0 || int(s) >= c.g.N() {
			return fmt.Errorf("difftest: start vertex %d out of range [0,%d)", s, c.g.N())
		}
		if c.visitedStamp[s] == c.epoch {
			continue // duplicate start
		}
		c.visitedStamp[s] = c.epoch
		c.visitedCount++
		c.cur = append(c.cur, s)
	}
	return nil
}

// Step advances one round: every active vertex pushes, and the push
// targets form the next active set.
func (c *refCobra) Step(r *rng.Rand) {
	g := c.g
	k := c.branching.K
	rho := c.branching.Rho
	c.next = c.next[:0]
	c.stepEpoch++
	if c.stepEpoch == 0 {
		clear(c.nextStamp)
		c.stepEpoch = 1
	}
	var sent int64
	roundSeed := r.Uint64()
	var cr *rng.Rand
	for j, v := range c.cur {
		cr = chunkStream(cr, roundSeed, j)
		deg := g.Degree(v)
		pushes := k
		if rho > 0 && cr.Bernoulli(rho) {
			pushes++
		}
		for i := 0; i < pushes; i++ {
			u := g.Neighbor(v, cr.Intn(deg))
			sent++
			if c.nextStamp[u] == c.stepEpoch {
				continue // coalesce: u already chosen this round
			}
			c.nextStamp[u] = c.stepEpoch
			c.next = append(c.next, u)
			if c.visitedStamp[u] != c.epoch {
				c.visitedStamp[u] = c.epoch
				c.visitedCount++
			}
		}
	}
	c.cur, c.next = c.next, c.cur
	c.round++
	c.transmitted += sent
	if c.obs != nil {
		c.obs(process.RoundStat{Round: c.round, Active: len(c.cur), Reached: c.visitedCount, Transmissions: sent})
	}
}

func (c *refCobra) Done() bool           { return c.visitedCount == c.g.N() }
func (c *refCobra) Round() int           { return c.round }
func (c *refCobra) ReachedCount() int    { return c.visitedCount }
func (c *refCobra) Transmissions() int64 { return c.transmitted }
func (c *refCobra) Reached(v int32) bool { return c.visitedStamp[v] == c.epoch }

// AppendReached appends the visited set in ascending vertex order.
func (c *refCobra) AppendReached(dst []int32) []int32 {
	for v := int32(0); int(v) < c.g.N(); v++ {
		if c.Reached(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// NewReferenceBips returns the reference BIPS engine, which samples the
// process as the paper defines it. The first start vertex is the
// permanently infected source; at every round every other vertex
// samples K random neighbours uniformly with replacement (plus one with
// probability Rho) and belongs to A_{t+1} iff at least one sample lies
// in A_t. Only vertices with an infected neighbour can become infected,
// so a Step visits just the candidates Γ(A_t) minus the source, in
// ascending vertex order. The registry bips engine is pinned to it draw
// for draw.
func NewReferenceBips(g *graph.Graph, cfg process.Config) (process.Process, error) {
	return newRefBips(g, cfg, false)
}

// NewClosedFormBips returns a BIPS engine that samples each round from
// the process's one-step law instead of drawing the neighbour samples:
// given A_t, the candidates join A_{t+1} independently, u with
// probability 1-(1-d_A(u)/d(u))^K·(1-Rho·d_A(u)/d(u)), where d_A(u)
// counts u's neighbours in A_t. It is identical in distribution to
// NewReferenceBips and to the registry engine, and shares their stream
// layout, but per candidate it draws the ρ coin (when Rho > 0) and one
// Bernoulli, so its draws differ. E13 compares the two samplings'
// infection times; transmissions count K plus the coin per candidate,
// the messages the exact sampling would send.
func NewClosedFormBips(g *graph.Graph, cfg process.Config) (process.Process, error) {
	return newRefBips(g, cfg, true)
}

func newRefBips(g *graph.Graph, cfg process.Config, closedForm bool) (process.Process, error) {
	br, err := newReferenceConfig(g, cfg)
	if err != nil {
		return nil, err
	}
	n := g.N()
	return &refBips{
		g:          g,
		branching:  br,
		closedForm: closedForm,
		obs:        cfg.Observer,
		curStamp:   make([]uint32, n),
		candStamp:  make([]uint32, n),
		infCount:   make([]int32, n),
	}, nil
}

type refBips struct {
	g          *graph.Graph
	branching  process.Branching
	closedForm bool
	obs        process.RoundObserver

	source   int32
	infected []int32 // current infected set A_t (unique vertices)
	next     []int32
	// v ∈ A_t iff curStamp[v] == epoch; candidate bookkeeping is per step
	// via candStamp/stepEpoch. infCount[v] accumulates d_A(v) for the
	// closed-form sampling.
	curStamp  []uint32
	candStamp []uint32
	infCount  []int32
	cands     []int32
	epoch     uint32
	stepEpoch uint32

	round       int
	transmitted int64
}

// Reset starts a run with source starts[0] and A_0 = set(starts).
func (b *refBips) Reset(starts ...int32) error {
	if len(starts) == 0 {
		return errors.New("difftest: empty start set")
	}
	for _, v := range starts {
		if v < 0 || int(v) >= b.g.N() {
			return fmt.Errorf("difftest: vertex %d out of range [0,%d)", v, b.g.N())
		}
	}
	b.epoch++
	if b.epoch == 0 {
		clear(b.curStamp)
		b.epoch = 1
	}
	b.source = starts[0]
	b.infected = b.infected[:0]
	b.round = 0
	b.transmitted = 0
	for _, v := range starts {
		if b.curStamp[v] == b.epoch {
			continue
		}
		b.curStamp[v] = b.epoch
		b.infected = append(b.infected, v)
	}
	return nil
}

// Step advances the epidemic one round.
func (b *refBips) Step(r *rng.Rand) {
	g := b.g
	b.stepEpoch++
	if b.stepEpoch == 0 {
		clear(b.candStamp)
		b.stepEpoch = 1
	}
	// Collect candidates: the neighbourhood Γ(A_t) minus the source,
	// which stays infected without drawing. While scanning, accumulate
	// d_A(u) for the closed-form sampling. Then list the candidates in
	// ascending vertex order, the order they draw in.
	for _, v := range b.infected {
		for _, u := range g.Neighbors(v) {
			if u == b.source {
				continue
			}
			if b.candStamp[u] != b.stepEpoch {
				b.candStamp[u] = b.stepEpoch
				b.infCount[u] = 0
			}
			b.infCount[u]++
		}
	}
	b.cands = b.cands[:0]
	for u, stamp := range b.candStamp {
		if stamp == b.stepEpoch {
			b.cands = append(b.cands, int32(u))
		}
	}

	b.next = b.next[:0]
	b.next = append(b.next, b.source) // the source is always infected

	k := b.branching.K
	rho := b.branching.Rho
	var sent int64
	roundSeed := r.Uint64()
	var cr *rng.Rand
	for j, u := range b.cands {
		cr = chunkStream(cr, roundSeed, j)
		var hit bool
		if b.closedForm {
			p := float64(b.infCount[u]) / float64(g.Degree(u))
			prob := 1 - missProb(p, k)*(1-rho*p)
			sent += int64(k)
			if rho > 0 && cr.Bernoulli(rho) {
				sent++
			}
			hit = cr.Bernoulli(prob)
		} else {
			deg := g.Degree(u)
			samples := k
			if rho > 0 && cr.Bernoulli(rho) {
				samples++
			}
			// Draw every sample (no short-circuit) so transmission counts
			// reflect the protocol as defined.
			for i := 0; i < samples; i++ {
				sent++
				w := g.Neighbor(u, cr.Intn(deg))
				if b.curStamp[w] == b.epoch {
					hit = true
				}
			}
		}
		if hit {
			b.next = append(b.next, u)
		}
	}

	// Swap infected sets: stamp the new set with a fresh epoch.
	b.epoch++
	if b.epoch == 0 {
		clear(b.curStamp)
		b.epoch = 1
	}
	for _, u := range b.next {
		b.curStamp[u] = b.epoch
	}
	b.infected, b.next = b.next, b.infected
	b.round++
	b.transmitted += sent
	if b.obs != nil {
		b.obs(process.RoundStat{Round: b.round, Active: len(b.infected), Reached: len(b.infected), Transmissions: sent})
	}
}

func (b *refBips) Done() bool           { return len(b.infected) == b.g.N() }
func (b *refBips) Round() int           { return b.round }
func (b *refBips) ReachedCount() int    { return len(b.infected) }
func (b *refBips) Transmissions() int64 { return b.transmitted }
func (b *refBips) Reached(v int32) bool { return b.curStamp[v] == b.epoch }

// AppendReached appends A_t in ascending vertex order.
func (b *refBips) AppendReached(dst []int32) []int32 {
	for v := int32(0); int(v) < b.g.N(); v++ {
		if b.Reached(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// missProb returns (1-p)^k, with the small integer exponents of practical
// branching factors multiplied out: math.Pow costs more than the rest of
// a closed-form candidate evaluation.
func missProb(p float64, k int) float64 {
	q := 1 - p
	switch k {
	case 1:
		return q
	case 2:
		return q * q
	case 3:
		return q * q * q
	case 4:
		qq := q * q
		return qq * qq
	default:
		return math.Pow(q, float64(k))
	}
}
