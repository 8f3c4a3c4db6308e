package process

import (
	"runtime"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// cobraParProc is the parallel-round-kernel variant of the native COBRA
// engine (cobraProc): the same protocol, membership bitsets and
// branchless merge arithmetic, but each round's push sampling — the
// DRAM-latency-bound bulk of a trial at scale — runs as a parallel-for
// over contiguous frontier chunks on a kernelPool.
//
// A Step has three phases:
//
//  1. Seed: one Uint64 draw from the trial stream yields roundSeed —
//     the only draw the trial generator spends per round.
//  2. Sample (parallel): the frontier C_t is cut into kernelChunk-sized
//     chunks. A worker claiming chunk c reseeds its private generator
//     to NewStream(roundSeed, c) and writes the chunk's raw push
//     targets into the chunk's fixed staging region stage[c·stride:],
//     recording the target count and transmission count per chunk. No
//     shared state is written: the bitsets are untouched and infB-style
//     membership reads do not exist in cobra's sampling.
//  3. Merge (sequential): chunks are folded in chunk order with exactly
//     cobraProc's branchless frontier/visited arithmetic, building
//     C_{t+1} and the reached count.
//
// Chunk boundaries depend only on |C_t| and the per-chunk streams only
// on (roundSeed, c), so phases 2–3 produce byte-identical state for
// every worker count; difftest.LockstepWorkers pins this. The engine is
// NOT stream-compatible with cobraProc (which spends the trial stream
// per push, not per round) — the sequential engine stays the reference,
// cobra-par is a registered variant.
//
// All buffers are sized at construction and reused across rounds and
// Resets, so steady-state Steps perform zero allocations.
type cobraParProc struct {
	// g pins the source graph: see cobraProc — the CSR slices alias it,
	// and mmap-backed graphs unmap when the graph becomes unreachable.
	g         *graph.Graph
	offsets   []int64
	neighbors []int32
	n         int
	reg       int32       // common degree when the graph is regular, else 0
	samp      rng.Bounded // sampler over [0, reg) when regular

	k   int
	rho float64
	obs RoundObserver

	pool *kernelPool

	visited  bitset
	frontier bitset
	curBuf   []int32 // C_t, first curLen entries
	nextBuf  []int32 // C_{t+1} under construction
	curLen   int

	// Per-round kernel state. stage is one flat buffer; chunk c owns
	// stage[c·stride : c·stride+stageLen[c]] (stride = kernelChunk ×
	// max pushes per vertex, so regions never overlap). sentC[c] is the
	// chunk's transmission count. roundSeed is read-only during the
	// parallel phase.
	stage     []int32
	stageLen  []int32
	sentC     []int64
	stride    int
	roundSeed uint64

	round   int
	reached int
	sent    int64
}

func newCobraParProc(g *graph.Graph, cfg Config) (Process, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	br := cfg.branching()
	if err := br.Validate(); err != nil {
		return nil, err
	}
	offsets, neighbors := g.CSR()
	maxPush := br.K
	if br.Rho > 0 {
		maxPush++
	}
	maxChunks := chunksFor(g.N())
	p := &cobraParProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         g.N(),
		k:         br.K,
		rho:       br.Rho,
		obs:       cfg.Observer,
		pool:      newKernelPool(cfg.kernelWorkers()),
		visited:   newBitset(g.N()),
		frontier:  newBitset(g.N()),
		// One slot beyond n: see cobraProc — the branchless merge always
		// stores at next[j] and advances only on fresh frontier bits.
		curBuf:   make([]int32, g.N()+1),
		nextBuf:  make([]int32, g.N()+1),
		stage:    make([]int32, maxChunks*kernelChunk*maxPush),
		stageLen: make([]int32, maxChunks),
		sentC:    make([]int64, maxChunks),
		stride:   kernelChunk * maxPush,
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
	}
	if len(p.pool.start) > 0 {
		// The pool holds no reference to p between rounds, so once the
		// caller drops the engine this hook fires and the helpers exit.
		runtime.AddCleanup(p, func(kp *kernelPool) { kp.stop() }, p.pool)
	}
	return p, nil
}

func (p *cobraParProc) Reset(starts ...int32) error {
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

// runChunk samples every push of frontier chunk `chunk` into the
// chunk's staging region. It reads only construction-time state plus
// curBuf/roundSeed (both frozen for the round) and writes only
// chunk-owned slots, so chunks race on nothing.
func (p *cobraParProc) runChunk(worker, chunk int) {
	r := p.pool.rands[worker]
	r.ReseedStream(p.roundSeed, uint64(chunk))
	lo := chunk * kernelChunk
	hi := lo + kernelChunk
	if hi > p.curLen {
		hi = p.curLen
	}
	out := p.stage[chunk*p.stride:]
	pos := 0
	nb := p.neighbors
	k := p.k
	if p.reg > 0 && p.rho == 0 {
		// Regular graph, integral branching: no offsets lookups, no
		// Bernoulli branch — the same tight sampling loop as cobraProc,
		// minus the merge (deferred to the sequential phase).
		reg := int64(p.reg)
		mask, pow2 := p.samp.Mask()
		samp := p.samp
		for _, v := range p.curBuf[lo:hi] {
			base := int64(v) * reg
			for i := 0; i < k; i++ {
				var idx uint64
				if pow2 {
					idx = r.Uint64() & mask
				} else {
					idx = samp.Next(r)
				}
				out[pos] = nb[base+int64(idx)]
				pos++
			}
		}
	} else {
		offsets := p.offsets
		rho := p.rho
		for _, v := range p.curBuf[lo:hi] {
			olo, ohi := offsets[v], offsets[v+1]
			deg := uint64(ohi - olo)
			pushes := k
			if rho > 0 && r.Bernoulli(rho) {
				pushes++
			}
			for i := 0; i < pushes; i++ {
				out[pos] = nb[olo+int64(r.Uint64n(deg))]
				pos++
			}
		}
	}
	p.stageLen[chunk] = int32(pos)
	p.sentC[chunk] = int64(pos)
}

func (p *cobraParProc) Step(r *rng.Rand) {
	p.roundSeed = r.Uint64()
	numChunks := chunksFor(p.curLen)
	p.pool.dispatch(p, numChunks)

	// Merge in chunk order — identical arithmetic to cobraProc's push
	// loop, operating on the staged targets. The targets are L2-resident
	// sequential reads and the bitset updates are branchless RMWs, so
	// the serial fraction stays a small slice of the round even though
	// this phase is single-threaded (Amdahl's bound on the kernel).
	next := p.nextBuf
	j := 0
	frontier, visited := p.frontier, p.visited
	reached := p.reached
	var sent int64
	for c := 0; c < numChunks; c++ {
		sent += p.sentC[c]
		base := c * p.stride
		for _, u := range p.stage[base : base+int(p.stageLen[c])] {
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
	p.frontier.clearMembers(next[:j])
	p.curBuf, p.nextBuf = next, p.curBuf
	p.curLen = j
	p.round++
	p.sent += sent
	if p.obs != nil {
		p.obs(RoundStat{Round: p.round, Active: p.curLen, Reached: p.reached, Transmissions: sent})
	}
}

func (p *cobraParProc) Done() bool           { return p.reached == p.n }
func (p *cobraParProc) Round() int           { return p.round }
func (p *cobraParProc) ReachedCount() int    { return p.reached }
func (p *cobraParProc) Transmissions() int64 { return p.sent }
func (p *cobraParProc) Reached(v int32) bool { return p.visited.test(v) }

// AppendReached appends the visited set in ascending vertex order.
func (p *cobraParProc) AppendReached(dst []int32) []int32 {
	return appendBits(dst, p.visited, p.n)
}
