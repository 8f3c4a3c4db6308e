package process

import (
	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// cobraProc is the native COBRA engine: at every round each vertex of the
// active set C_t pushes to K uniformly random neighbours (plus one with
// probability Rho, sampled with replacement); the push targets coalesce
// into C_{t+1}, and the walk is done when every vertex has been active at
// least once.
//
// The engine runs directly over the graph's CSR arrays with bitset
// membership sets: `visited` lives for the whole run (cleared per Reset),
// `frontier` coalesces the targets of the current round and is cleared
// member-by-member, so a Step costs O(K·|C_t|) regardless of n. On a
// regular graph the degree is hoisted into a precomputed rng.Bounded
// sampler and neighbour addressing needs no offsets lookup at all.
//
// The push loop is deliberately branchless: both bitsets are updated with
// unconditional read-or-write pairs and the frontier/visited outcomes are
// folded into index arithmetic (`sel` below). The membership tests are
// data-dependent coin flips mid-run, so a conditional version pays a
// pipeline flush per mispredict — and each flush also squashes the
// out-of-order window that hides the random neighbour load's latency.
// C_{t+1} therefore builds into a fixed n-length buffer through a write
// index rather than append.
//
// cobraProc consumes its generator exactly like the test-only reference
// implementation: per active vertex one optional Rho Bernoulli followed by
// one bounded draw per push, in active-set order. The differential harness
// (internal/process/difftest) holds the reference and pins that
// byte-identity; do not reorder draws.
type cobraProc struct {
	// g pins the source graph for the engine's lifetime: the CSR slices
	// below alias it, and for mmap-backed graphs (graphstore.Mmap) the
	// mapping is released when the graph becomes unreachable — an engine
	// holding only the slices would sample unmapped pages.
	g         *graph.Graph
	offsets   []int64
	neighbors []int32
	n         int
	reg       int32       // common degree when the graph is regular, else 0
	samp      rng.Bounded // sampler over [0, reg) when regular

	k   int
	rho float64
	obs RoundObserver

	visited  bitset
	frontier bitset
	curBuf   []int32 // C_t, first curLen entries
	nextBuf  []int32 // C_{t+1} under construction
	curLen   int

	round   int
	reached int
	sent    int64
}

func newCobraProc(g *graph.Graph, cfg Config) (Process, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	br := cfg.branching()
	if err := br.Validate(); err != nil {
		return nil, err
	}
	offsets, neighbors := g.CSR()
	p := &cobraProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         g.N(),
		k:         br.K,
		rho:       br.Rho,
		obs:       cfg.Observer,
		visited:   newBitset(g.N()),
		frontier:  newBitset(g.N()),
		// One slot beyond n: the branchless push loop always stores the
		// target at next[j] and advances j only for fresh frontier bits,
		// so after the n-th distinct target the dead store lands in the
		// sentinel slot.
		curBuf:  make([]int32, g.N()+1),
		nextBuf: make([]int32, g.N()+1),
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
	}
	return p, nil
}

func (p *cobraProc) Reset(starts ...int32) error {
	if err := checkStartsN(p.n, starts); err != nil {
		return err
	}
	p.visited.zero()
	p.curLen = 0
	p.round = 0
	p.reached = 0
	p.sent = 0
	for _, s := range starts {
		if p.visited.testAndSet(s) {
			p.reached++
			p.curBuf[p.curLen] = s
			p.curLen++
		}
	}
	return nil
}

// sel returns 1 when bit `bit` of word is clear, 0 when set — the
// branchless select the push loops advance their counters with.
func sel(word uint64, bit uint32) int {
	return int(word>>bit)&1 ^ 1
}

func (p *cobraProc) Step(r *rng.Rand) {
	next := p.nextBuf
	j := 0
	var sent int64
	if p.reg > 0 && p.rho == 0 {
		// Regular graph, integral branching: the tight loop. No offsets
		// lookups (neighbour base is v·reg), no per-draw degree test, no
		// Bernoulli branch, and no data-dependent branches in the body:
		// the frontier/visited words are rewritten unconditionally (if the
		// frontier bit is already set the visited bit must be too, so
		// re-OR-ing both is a no-op), the target is stored unconditionally,
		// and the write index advances only on a fresh frontier bit.
		k := p.k
		reg := int64(p.reg)
		nb := p.neighbors
		frontier, visited := p.frontier, p.visited
		reached := p.reached
		mask, pow2 := p.samp.Mask()
		samp := p.samp
		for _, v := range p.curBuf[:p.curLen] {
			base := int64(v) * reg
			for i := 0; i < k; i++ {
				var idx uint64
				if pow2 {
					idx = r.Uint64() & mask
				} else {
					idx = samp.Next(r)
				}
				u := nb[base+int64(idx)]
				w := uint32(u) >> 6
				bit := uint32(u) & 63
				m := uint64(1) << bit
				old := frontier[w]
				vis := visited[w]
				frontier[w] = old | m
				visited[w] = vis | m
				next[j] = u
				j += sel(old, bit)
				reached += sel(vis, bit)
			}
		}
		p.reached = reached
		sent = int64(k) * int64(p.curLen)
	} else {
		nb := p.neighbors
		offsets := p.offsets
		frontier, visited := p.frontier, p.visited
		reached := p.reached
		for _, v := range p.curBuf[:p.curLen] {
			lo, hi := offsets[v], offsets[v+1]
			deg := uint64(hi - lo)
			pushes := p.k
			if p.rho > 0 && r.Bernoulli(p.rho) {
				pushes++
			}
			for i := 0; i < pushes; i++ {
				u := nb[lo+int64(r.Uint64n(deg))]
				sent++
				w := uint32(u) >> 6
				bit := uint32(u) & 63
				m := uint64(1) << bit
				old := frontier[w]
				vis := visited[w]
				frontier[w] = old | m
				visited[w] = vis | m
				next[j] = u
				j += sel(old, bit)
				reached += sel(vis, bit)
			}
		}
		p.reached = reached
	}
	// The frontier bits are exactly the members of next; clearing by
	// members keeps sparse rounds O(|C_t|), dense rounds one memclr.
	p.frontier.clearMembers(next[:j])
	p.curBuf, p.nextBuf = next, p.curBuf
	p.curLen = j
	p.round++
	p.sent += sent
	if p.obs != nil {
		p.obs(RoundStat{Round: p.round, Active: p.curLen, Reached: p.reached, Transmissions: sent})
	}
}

func (p *cobraProc) Done() bool           { return p.reached == p.n }
func (p *cobraProc) Round() int           { return p.round }
func (p *cobraProc) ReachedCount() int    { return p.reached }
func (p *cobraProc) Transmissions() int64 { return p.sent }
func (p *cobraProc) Reached(v int32) bool { return p.visited.test(v) }

// AppendReached appends the visited set in ascending vertex order.
func (p *cobraProc) AppendReached(dst []int32) []int32 {
	return appendBits(dst, p.visited, p.n)
}
