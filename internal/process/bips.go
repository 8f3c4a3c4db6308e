package process

import (
	"encoding/binary"
	"runtime"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// bipsProc is the BIPS (biased infection with persistent source)
// engine: the first start vertex is the permanently infected source; at
// every round each vertex with an infected neighbour samples K random
// neighbours with replacement (plus one with probability Rho) and joins
// A_{t+1} iff at least one sample lies in A_t. BIPS is the time-reversal
// dual of COBRA (Theorem 4); a Step costs O(Σ_{v∈A_t} deg(v)) plus an
// O(n/8)-word scan.
//
// Membership lives in byte maps rather than bitsets: `infB[v]` is 1 when
// v ∈ A_t, and `marks[w][v]` is 1 once kernel worker w has seen v as a
// neighbour of A_t this round. A byte map costs 8× the memory of a
// bitset (128 KiB per map at n = 2^17, L2-resident) but the per-arc
// update is a plain load/store pair with no read-modify-write of a word
// shared by 64 vertices: with a bitset, consecutive arcs hit the same
// word often enough that the OR chains serialize through
// store-forwarding, and the mark pass touches every arc of the infected
// set. The maps are per worker because Go has no atomic byte store: two
// goroutines storing 1 into one byte map is a data race. The hot loops
// are branchless — the hit compaction and the candidate enumeration are
// folded into unconditional stores plus arithmetic index advancement
// into fixed-length buffers (see cobraProc for why).
//
// A Step runs on the round kernel (kernel.go):
//
//  1. Seed: one Uint64 draw from the trial stream yields roundSeed.
//  2. Mark (parallel, no RNG): A_t is cut into KernelChunk-sized blocks.
//     A worker claiming a block stores a 1 in its own map for every
//     neighbour of the block's vertices, and stops once its map holds
//     every vertex but the source. The marks depend on A_t only as a
//     set, so neither the order of A_t nor this grid can change a byte.
//  3. Enumerate (sequential): one ascending pass ORs the maps 8 bytes at
//     a time, skips zero words, writes Γ(A_t) minus the source into the
//     candidate list in ascending vertex order and zeroes the words it
//     read. When a worker's map filled, the list is every vertex but
//     the source and is written without a scan.
//  4. Evaluate (parallel): candidates are cut into KernelChunk-sized
//     chunks. A worker claiming chunk c reseeds its private generator
//     to NewStream(roundSeed, c) and fills the chunk's slice of the
//     hit-flag buffer (disjoint ranges; infB and the CSR are read-only
//     here), recording per-chunk transmission counts. Per candidate it
//     draws the ρ coin when Rho > 0 (an rng.Coin flip, Bernoulli(Rho) on
//     the same draw) then one bounded draw per sample. On a regular
//     graph of power-of-two degree it takes its draws in bulk from the
//     worker's buffer (rng.FillUint64, see refillDraws), and under
//     fractional branching the coin masks the extra sample instead of
//     branching.
//  5. Compact (sequential): a branchless index bump over the hit flags
//     builds A_{t+1} — the source, then the hits in candidate order, so
//     ascending — and the member-wise cleanup restamps infB.
//
// Both parallel passes read the CSR rows in ascending vertex order. The
// candidate list is a function of A_t's set, chunk boundaries depend
// only on the candidate count and the chunk streams only on
// (roundSeed, c), so results are byte-identical for every worker count.
// The reference engine (internal/process/difftest) draws in the same
// layout, and the lockstep harness pins the two draw for draw; do not
// reorder draws.
//
// Buffers are sized at construction and reused; steady-state Steps
// perform zero allocations.
type bipsProc struct {
	// g pins the source graph: see cobraProc — the CSR slices alias it,
	// and mmap-backed graphs unmap when the graph becomes unreachable.
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

	source  int32
	infB    []uint8 // infB[v] == 1 iff v ∈ A_t
	infBuf  []int32 // A_t, first infLen entries: the source, then ascending once stepped
	nextBuf []int32 // A_{t+1} under construction
	candBuf []int32 // Γ(A_t) minus the source, ascending (+ 8 slots of dead stores)
	hitBuf  []uint8 // per-candidate hit flags; chunk c owns [c·KernelChunk, …)
	infLen  int

	// The mark pass's per-worker state: marks[w] is worker w's candidate
	// map, n bytes padded to a multiple of 8 and all zero between rounds;
	// marked[w] counts the non-source vertices it holds this round.
	marks  [][]uint8
	marked []int
	used   [][]uint8 // the maps the enumeration ORs, reused per round

	// Per-round kernel state: the candidate count, the round seed (both
	// frozen during the parallel phase), per-chunk transmission counts,
	// and one bulk-draw buffer per worker for the power-of-two loops.
	nc        int
	roundSeed uint64
	sentC     []int64
	drawBufs  [][]uint64

	round int
	sent  int64
}

func newBipsProc(g *graph.Graph, cfg Config) (Process, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	br := cfg.branching()
	if err := br.Validate(); err != nil {
		return nil, err
	}
	offsets, neighbors := g.CSR()
	p := &bipsProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         g.N(),
		k:         br.K,
		rho:       br.Rho,
		obs:       cfg.Observer,
		pool:      newKernelPool(cfg.KernelWorkers),
		infB:      make([]uint8, g.N()),
		infBuf:    make([]int32, g.N()),
		nextBuf:   make([]int32, g.N()),
		candBuf:   make([]int32, g.N()+8),
		hitBuf:    make([]uint8, g.N()),
		sentC:     make([]int64, chunksFor(g.N())),
	}
	workers := p.pool.workers()
	p.marks = make([][]uint8, workers)
	for w := range p.marks {
		p.marks[w] = make([]uint8, (g.N()+7)&^7)
	}
	p.marked = make([]int, workers)
	p.used = make([][]uint8, 0, workers)
	if br.Rho > 0 {
		p.coin = rng.NewCoin(br.Rho)
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
		if _, pow2 := p.samp.Mask(); pow2 {
			p.drawBufs = newDrawBufs(workers, p.k)
		}
	}
	if len(p.pool.start) > 0 {
		runtime.AddCleanup(p, func(kp *kernelPool) { kp.stop() }, p.pool)
	}
	return p, nil
}

// Reset prepares the run with source starts[0] and A_0 = set(starts).
func (p *bipsProc) Reset(starts ...int32) error {
	if err := checkStartsN(p.n, starts); err != nil {
		return err
	}
	clear(p.infB)
	p.source = starts[0]
	p.infLen = 0
	p.round = 0
	p.sent = 0
	for _, s := range starts {
		if p.infB[s] == 0 {
			p.infB[s] = 1
			p.infBuf[p.infLen] = s
			p.infLen++
		}
	}
	return nil
}

// runChunk evaluates candidate chunk `chunk` into its slice of the
// hit-flag buffer. Shared state (infB, the CSR arrays, the candidate
// list) is read-only during the parallel phase; the only writes are
// hitBuf[chunk range] and sentC[chunk].
func (p *bipsProc) runChunk(worker, chunk int) {
	r := p.pool.rands[worker]
	r.ReseedStream(p.roundSeed, uint64(chunk))
	lo := chunk * KernelChunk
	hi := lo + KernelChunk
	if hi > p.nc {
		hi = p.nc
	}
	cands := p.candBuf[lo:hi]
	hit := p.hitBuf[lo:hi]
	nb := p.neighbors
	offsets := p.offsets
	k := p.k
	rho := p.rho
	coin := p.coin
	var sent int64
	switch {
	case p.reg > 0 && rho == 0:
		// Regular graph, integral branching: the tight loop. Every
		// sample is drawn (no short-circuit on the first hit, so
		// transmission counts reflect the protocol as defined) into a
		// per-candidate hit flag; iterations carry no cross-iteration
		// dependency, so the out-of-order core overlaps the random row
		// loads across candidates. On the power-of-two degree path the
		// draws are bulk-generated with FillUint64 into the worker's
		// private L1-sized buffer — the candidate count fixes the draw
		// count up front, so the buffer holds exactly the values per-call
		// draws would return, in order — and K = 2 (the paper's default
		// branching) gets a fully unrolled body.
		reg := int64(p.reg)
		samp := p.samp
		mask, pow2 := p.samp.Mask()
		infB := p.infB
		if pow2 {
			draws := p.drawBufs[worker]
			blockCands := len(draws) / k
			for blo := 0; blo < len(cands); blo += blockCands {
				bhi := blo + blockCands
				if bhi > len(cands) {
					bhi = len(cands)
				}
				block := cands[blo:bhi]
				r.FillUint64(draws[:len(block)*k])
				pos := 0
				if k == 2 {
					for bi, u := range block {
						base := int64(u) * reg
						w0 := nb[base+int64(draws[pos]&mask)]
						w1 := nb[base+int64(draws[pos+1]&mask)]
						pos += 2
						hit[blo+bi] = infB[w0] | infB[w1]
					}
				} else {
					for bi, u := range block {
						base := int64(u) * reg
						var hits uint8
						for s := 0; s < k; s++ {
							w := nb[base+int64(draws[pos]&mask)]
							pos++
							hits |= infB[w]
						}
						hit[blo+bi] = hits
					}
				}
			}
		} else {
			for i, u := range cands {
				base := int64(u) * reg
				var hits uint8
				for s := 0; s < k; s++ {
					w := nb[base+int64(samp.Next(r))]
					hits |= infB[w]
				}
				hit[i] = hits
			}
		}
		sent = int64(k) * int64(len(cands))
	case p.drawBufs != nil && rho > 0:
		// Regular power-of-two degree, fractional branching: the same
		// bulk draws, read in per-call order. Per candidate, draw 0 is
		// the ρ coin and draws 1…K the samples; draw K+1, the extra
		// sample, is loaded every time and its hit masked by the coin,
		// so no branch depends on the coin, and the read position skips
		// past it only when the coin fired. The candidate count no
		// longer fixes the draw count, so refills draw ahead (see
		// refillDraws).
		reg := int64(p.reg)
		mask, _ := p.samp.Mask()
		infB := p.infB
		draws := p.drawBufs[worker]
		need := k + 2
		pos, end := 0, 0
		var coins int
		for i, u := range cands {
			if end-pos < need {
				end = refillDraws(r, draws, pos, end, (len(cands)-i)*need)
				pos = 0
			}
			d := draws[pos : pos+need]
			c := coin.Hit(d[0])
			base := int64(u) * reg
			var hits uint8
			for s := 1; s <= k; s++ {
				hits |= infB[nb[base+int64(d[s]&mask)]]
			}
			hit[i] = hits | infB[nb[base+int64(d[k+1]&mask)]]&uint8(c)
			pos += 1 + k + int(c)
			coins += int(c)
		}
		sent = int64(k)*int64(len(cands)) + int64(coins)
	default:
		infB := p.infB
		for i, u := range cands {
			olo, ohi := offsets[u], offsets[u+1]
			deg := uint64(ohi - olo)
			samples := k
			if rho > 0 {
				samples += int(coin.Hit(r.Uint64()))
			}
			var hits uint8
			for s := 0; s < samples; s++ {
				sent++
				w := nb[olo+int64(r.Uint64n(deg))]
				hits |= infB[w]
			}
			hit[i] = hits
		}
	}
	p.sentC[chunk] = sent
}

// bipsMark is the mark pass's view of the engine: the pool runs its
// runChunk on blocks of A_t, where bipsProc's own runChunk evaluates
// blocks of the candidate list.
type bipsMark bipsProc

// runChunk marks the neighbours of A_t's block `chunk` in the worker's
// own map and adds the fresh non-source marks to marked[worker]. It
// reads infBuf and the CSR and writes only the worker's map and count.
func (m *bipsMark) runChunk(worker, chunk int) {
	p := (*bipsProc)(m)
	mark := p.marks[worker]
	cnt := p.marked[worker]
	full := p.n - 1
	lo := chunk * KernelChunk
	hi := min(lo+KernelChunk, p.infLen)
	nb := p.neighbors
	if p.reg > 0 {
		// Regular graph: row v is nb[v·reg : (v+1)·reg], no offsets
		// loads. Mark and count unconditionally: a fresh byte adds 1.
		// Once the map holds every vertex but the source no row can add
		// more, so dense rounds stop early (the check is per row, not per
		// arc, and predicts perfectly until the exit). The row is
		// unrolled two arcs per iteration (plus an odd tail): the per-arc
		// work is a few µops, so halving the loop control is a measurable
		// slice of the pass. A duplicate neighbour inside one pair is
		// still counted once — the second byte load observes the first
		// store.
		reg := int64(p.reg)
		for _, v := range p.infBuf[lo:hi] {
			if cnt == full {
				break
			}
			a := int64(v) * reg
			end := a + reg
			for ; a+1 < end; a += 2 {
				u0, u1 := nb[a], nb[a+1]
				old0 := mark[u0]
				mark[u0] = 1
				old1 := mark[u1]
				mark[u1] = 1
				cnt += int(old0^1) + int(old1^1)
			}
			if a < end {
				u := nb[a]
				old := mark[u]
				mark[u] = 1
				cnt += int(old ^ 1)
			}
		}
	} else {
		offsets := p.offsets
		for _, v := range p.infBuf[lo:hi] {
			if cnt == full {
				break
			}
			for _, u := range nb[offsets[v]:offsets[v+1]] {
				old := mark[u]
				mark[u] = 1
				cnt += int(old ^ 1)
			}
		}
	}
	p.marked[worker] = cnt
}

func (p *bipsProc) Step(r *rng.Rand) {
	p.roundSeed = r.Uint64()
	// Mark Γ(A_t) on the pool. Pre-marking the source keeps it out of
	// every worker's count, so a map is full at n−1 fresh marks; the
	// enumeration drops it, so the protocol skips the source without
	// consuming any draws and no evaluation loop tests for it.
	for w, mark := range p.marks {
		mark[p.source] = 1
		p.marked[w] = 0
	}
	infected := p.infBuf[:p.infLen]
	p.pool.dispatch((*bipsMark)(p), chunksFor(p.infLen))
	nc := p.enumerate()
	cands := p.candBuf[:nc]
	p.nc = nc

	// Evaluate in parallel, then compact sequentially.
	numChunks := chunksFor(nc)
	p.pool.dispatch(p, numChunks)

	next := p.nextBuf
	next[0] = p.source // the source is always infected
	j := 1
	hit := p.hitBuf
	for i, u := range cands {
		next[j] = u
		j += int(hit[i])
	}
	var sent int64
	for c := 0; c < numChunks; c++ {
		sent += p.sentC[c]
	}

	// Swap infected sets: clear the old membership marks, then stamp the
	// new set.
	infB := p.infB
	clearByteMembers(infB, infected)
	for _, u := range next[:j] {
		infB[u] = 1
	}
	p.infBuf, p.nextBuf = next, p.infBuf
	p.infLen = j
	p.round++
	p.sent += sent
	if p.obs != nil {
		p.obs(RoundStat{Round: p.round, Active: p.infLen, Reached: p.infLen,
			Transmissions: sent})
	}
}

// enumerate writes Γ(A_t) minus the source into candBuf in ascending
// vertex order from the workers' maps, leaves every map zero, and
// returns the candidate count.
func (p *bipsProc) enumerate() int {
	full := p.n - 1
	filled := false
	used := p.used[:0]
	for w, mark := range p.marks {
		mark[p.source] = 0
		if p.marked[w] > 0 {
			used = append(used, mark)
		}
		filled = filled || p.marked[w] == full
	}
	cands := p.candBuf
	if filled {
		// A full map needs no scan: the list is every vertex but the
		// source (on a complete graph, every round).
		for _, mark := range used {
			clear(mark)
		}
		nc := 0
		for u := int32(0); int(u) < p.n; u++ {
			if u != p.source {
				cands[nc] = u
				nc++
			}
		}
		return nc
	}
	// OR the maps a word (8 vertices) at a time. A non-zero word spills
	// its vertices branch-free: each is stored at the write position,
	// which advances by its 0/1 byte, so the stores for unmarked
	// vertices are dead and overwritten (candBuf's 8 spare slots absorb
	// the last word's). Maps are padded to a multiple of 8 bytes and
	// vertices past n are never marked, so there is no tail case. Some
	// map is used: A_t holds the source, and graphs have no isolated
	// vertex and no self-loop, so the source has a neighbour to mark.
	first, rest := used[0], used[1:]
	nc := 0
	for i := 0; i < len(first); i += 8 {
		x := binary.LittleEndian.Uint64(first[i:])
		for _, mark := range rest {
			x |= binary.LittleEndian.Uint64(mark[i:])
		}
		if x == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(first[i:], 0)
		for _, mark := range rest {
			binary.LittleEndian.PutUint64(mark[i:], 0)
		}
		c := (*[8]int32)(cands[nc : nc+8])
		u := int32(i)
		k := 0
		c[k&7] = u
		k += int(x & 1)
		c[k&7] = u + 1
		k += int(x >> 8 & 1)
		c[k&7] = u + 2
		k += int(x >> 16 & 1)
		c[k&7] = u + 3
		k += int(x >> 24 & 1)
		c[k&7] = u + 4
		k += int(x >> 32 & 1)
		c[k&7] = u + 5
		k += int(x >> 40 & 1)
		c[k&7] = u + 6
		k += int(x >> 48 & 1)
		c[k&7] = u + 7
		k += int(x >> 56 & 1)
		nc += k
	}
	return nc
}

func (p *bipsProc) Done() bool           { return p.infLen == p.n }
func (p *bipsProc) Round() int           { return p.round }
func (p *bipsProc) ReachedCount() int    { return p.infLen }
func (p *bipsProc) Transmissions() int64 { return p.sent }
func (p *bipsProc) Reached(v int32) bool { return p.infB[v] != 0 }

// AppendReached appends A_t in ascending vertex order.
func (p *bipsProc) AppendReached(dst []int32) []int32 {
	for v, x := range p.infB {
		if x != 0 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// clearByteMembers zeroes the byte-map entries named by members, switching
// to a whole-map memclr when the members would dirty a comparable number of
// cache lines anyway: member-wise clearing is a random store per member,
// memclr is a straight-line sweep.
func clearByteMembers(b []uint8, members []int32) {
	if len(members) >= len(b)>>3 {
		clear(b)
		return
	}
	for _, v := range members {
		b[v] = 0
	}
}
