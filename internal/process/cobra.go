package process

import (
	"runtime"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// cobraProc is the COBRA engine: at every round each vertex of the
// active set C_t pushes to K uniformly random neighbours (plus one with
// probability Rho, sampled with replacement); the push targets coalesce
// into C_{t+1}, and the walk is done when every vertex has been active
// at least once.
//
// The engine runs directly over the graph's CSR arrays with bitset
// membership sets: `visited` lives for the whole run (cleared per
// Reset), `frontier` coalesces the targets of the current round and is
// cleared member-by-member, so a Step costs O(K·|C_t|) regardless of n.
// On a regular graph the degree is hoisted into a precomputed
// rng.Bounded sampler and neighbour addressing needs no offsets lookup.
//
// A Step runs on the round kernel (kernel.go) in three phases:
//
//  1. Seed: one Uint64 draw from the trial stream yields roundSeed —
//     the only draw the trial generator spends per round.
//  2. Sample (parallel): C_t is cut into KernelChunk-sized chunks. A
//     worker claiming chunk c reseeds its private generator to
//     NewStream(roundSeed, c) and writes the chunk's raw push targets
//     into the chunk's fixed staging region stage[c·stride:], drawing
//     per active vertex one ρ coin when Rho > 0 (an rng.Coin flip,
//     Bernoulli(Rho) on the same draw) followed by one bounded draw per
//     push. On a regular graph of power-of-two degree under fractional
//     branching those draws come from the worker's bulk-draw buffer
//     (rng.FillUint64, see refillDraws), and the coin masks the extra
//     push instead of branching. No shared state is written.
//  3. Merge (sequential): chunks are folded in chunk order, building
//     C_{t+1} (in first-push order) and the reached count.
//
// The merge is deliberately branchless: both bitsets are updated with
// unconditional read-or-write pairs and the frontier/visited outcomes
// are folded into index arithmetic (`sel` below). The membership tests
// are data-dependent coin flips mid-run, so a conditional version pays
// a pipeline flush per mispredict. C_{t+1} therefore builds into a
// fixed n-length buffer through a write index rather than append.
//
// Chunk boundaries depend only on |C_t| and the per-chunk streams only
// on (roundSeed, c), so the state is byte-identical for every worker
// count. The test-only reference engine (internal/process/difftest)
// draws in the same layout, and the lockstep harness pins the two draw
// for draw at several worker counts; do not reorder draws.
//
// All buffers are sized at construction and reused across rounds and
// Resets, so steady-state Steps perform zero allocations.
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

	k    int
	rho  float64
	coin rng.Coin // Bernoulli(rho) on one draw, when rho > 0
	obs  RoundObserver

	pool *kernelPool

	visited  bitset
	frontier bitset
	curBuf   []int32 // C_t, first curLen entries
	nextBuf  []int32 // C_{t+1} under construction
	curLen   int

	// Per-round kernel state. stage is one flat buffer; chunk c owns
	// stage[c·stride : c·stride+stageLen[c]] (stride = KernelChunk ×
	// max pushes per vertex, so regions never overlap). sentC[c] is the
	// chunk's transmission count. roundSeed is read-only during the
	// parallel phase. numChunks is the last Step's chunk count (0 after
	// Reset), so AppendPushes can read its staged targets back.
	stage     []int32
	stageLen  []int32
	sentC     []int64
	stride    int
	roundSeed uint64
	numChunks int
	// drawBufs holds one bulk-draw buffer per worker, only on a regular
	// graph of power-of-two degree under fractional branching.
	drawBufs [][]uint64

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
	maxPush := br.K
	if br.Rho > 0 {
		maxPush++
	}
	maxChunks := chunksFor(g.N())
	p := &cobraProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         g.N(),
		k:         br.K,
		rho:       br.Rho,
		obs:       cfg.Observer,
		pool:      newKernelPool(cfg.KernelWorkers),
		visited:   newBitset(g.N()),
		frontier:  newBitset(g.N()),
		// One slot beyond n: the branchless merge always stores the
		// target at next[j] and advances j only for fresh frontier bits,
		// so after the n-th distinct target the dead store lands in the
		// sentinel slot.
		curBuf:   make([]int32, g.N()+1),
		nextBuf:  make([]int32, g.N()+1),
		stage:    make([]int32, maxChunks*KernelChunk*maxPush),
		stageLen: make([]int32, maxChunks),
		sentC:    make([]int64, maxChunks),
		stride:   KernelChunk * maxPush,
	}
	if br.Rho > 0 {
		p.coin = rng.NewCoin(br.Rho)
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
		if _, pow2 := p.samp.Mask(); pow2 && br.Rho > 0 {
			p.drawBufs = newDrawBufs(p.pool.workers(), br.K)
		}
	}
	if len(p.pool.start) > 0 {
		// The pool holds no reference to p between rounds, so once the
		// caller drops the engine this hook fires and the helpers exit.
		runtime.AddCleanup(p, func(kp *kernelPool) { kp.stop() }, p.pool)
	}
	return p, nil
}

func (p *cobraProc) Reset(starts ...int32) error {
	if err := checkStartsN(p.n, starts); err != nil {
		return err
	}
	p.visited.zero()
	p.curLen = 0
	p.numChunks = 0
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
// branchless select the merge loop advances its counters with.
func sel(word uint64, bit uint32) int {
	return int(word>>bit)&1 ^ 1
}

// runChunk samples every push of frontier chunk `chunk` into the
// chunk's staging region. It reads only construction-time state plus
// curBuf/roundSeed (both frozen for the round) and writes only
// chunk-owned slots, so chunks race on nothing.
func (p *cobraProc) runChunk(worker, chunk int) {
	r := p.pool.rands[worker]
	r.ReseedStream(p.roundSeed, uint64(chunk))
	lo := chunk * KernelChunk
	hi := lo + KernelChunk
	if hi > p.curLen {
		hi = p.curLen
	}
	out := p.stage[chunk*p.stride:]
	pos := 0
	nb := p.neighbors
	k := p.k
	switch {
	case p.reg > 0 && p.rho == 0:
		// Regular graph, integral branching: the tight loop. No offsets
		// lookups (neighbour base is v·reg), no per-draw degree test and
		// no Bernoulli branch.
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
	case p.drawBufs != nil:
		// Regular power-of-two degree, fractional branching: per active
		// vertex, draw 0 of the worker's bulk draws is the ρ coin and
		// draws 1…K the pushes. The extra push, draw K+1, is staged at
		// out[pos] every time and kept by advancing pos by the coin, so
		// no branch depends on the coin; the stride's K+1 slots per
		// vertex leave room for the dead store. The read position skips
		// the extra draw only when the coin fired, so the staged pushes
		// are exactly the per-call ones, in draw order.
		reg := int64(p.reg)
		mask, _ := p.samp.Mask()
		coin := p.coin
		draws := p.drawBufs[worker]
		need := k + 2
		rp, end := 0, 0
		active := p.curBuf[lo:hi]
		for i, v := range active {
			if end-rp < need {
				end = refillDraws(r, draws, rp, end, (len(active)-i)*need)
				rp = 0
			}
			d := draws[rp : rp+need]
			c := int(coin.Hit(d[0]))
			base := int64(v) * reg
			for s := 1; s <= k; s++ {
				out[pos] = nb[base+int64(d[s]&mask)]
				pos++
			}
			out[pos] = nb[base+int64(d[k+1]&mask)]
			pos += c
			rp += 1 + k + c
		}
	default:
		offsets := p.offsets
		rho := p.rho
		coin := p.coin
		for _, v := range p.curBuf[lo:hi] {
			olo, ohi := offsets[v], offsets[v+1]
			deg := uint64(ohi - olo)
			pushes := k
			if rho > 0 {
				pushes += int(coin.Hit(r.Uint64()))
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

func (p *cobraProc) Step(r *rng.Rand) {
	p.roundSeed = r.Uint64()
	numChunks := chunksFor(p.curLen)
	p.pool.dispatch(p, numChunks)
	p.numChunks = numChunks

	// Merge in chunk order. The staged targets are L2-resident
	// sequential reads and the bitset updates are branchless RMWs: the
	// frontier/visited words are rewritten unconditionally (if the
	// frontier bit is already set the visited bit must be too, so
	// re-OR-ing both is a no-op), the target is stored unconditionally,
	// and the write index advances only on a fresh frontier bit. The
	// serial fraction thus stays a small slice of the round even though
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

// AppendActive appends C_t, the vertices that push at the next Step.
func (p *cobraProc) AppendActive(dst []int32) []int32 {
	return append(dst, p.curBuf[:p.curLen]...)
}

// AppendPushes appends the last Step's staged push targets chunk by
// chunk, so in draw order with repeats.
func (p *cobraProc) AppendPushes(dst []int32) []int32 {
	for c := 0; c < p.numChunks; c++ {
		base := c * p.stride
		dst = append(dst, p.stage[base:base+int(p.stageLen[c])]...)
	}
	return dst
}
