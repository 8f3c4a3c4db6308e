package process

import (
	"runtime"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// bipsParProc is the parallel-round-kernel variant of the native BIPS
// engine (bipsProc). Candidate collection — a branchy, duplicate-
// suppressing scan whose discovery order defines the candidate list —
// stays sequential and byte-identical in structure to bipsProc; the
// expensive phase, evaluating every candidate's K random neighbour
// samples against A_t (a random CSR gather per sample), runs as a
// parallel-for over contiguous candidate ranges on a kernelPool.
//
// A Step:
//
//  1. Seed: one Uint64 draw from the trial stream yields roundSeed.
//  2. Collect (sequential, no RNG): Γ(A_t) minus the source, in
//     infected-list discovery order, exactly as bipsProc.
//  3. Evaluate (parallel): candidates are cut into kernelChunk-sized
//     chunks. A worker claiming chunk c reseeds its private generator
//     to NewStream(roundSeed, c) and fills the chunk's slice of the
//     hit-flag buffer (disjoint ranges; infB, infCount and the CSR are
//     read-only here), recording per-chunk transmission counts.
//  4. Compact (sequential): bipsProc's branchless hit compaction
//     builds A_{t+1}, then the usual member-wise cleanup runs.
//
// Chunk boundaries depend only on the candidate count and the chunk
// streams only on (roundSeed, c), so results are byte-identical for
// every worker count (difftest.LockstepWorkers). Like cobra-par, the
// engine is not stream-compatible with the sequential reference.
//
// Buffers are sized at construction and reused; steady-state Steps
// perform zero allocations.
type bipsParProc struct {
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
	fast bool
	obs  RoundObserver

	pool *kernelPool

	source   int32
	infB     []uint8 // infB[v] == 1 iff v ∈ A_t
	candB    []uint8 // candB[v] == 1 iff v already discovered this round
	infCount []int32
	infBuf   []int32 // A_t, first infLen entries (+ sentinel slot)
	nextBuf  []int32 // A_{t+1} under construction
	candBuf  []int32 // Γ(A_t) minus the source, in discovery order
	hitBuf   []uint8 // per-candidate hit flags; chunk c owns [c·kernelChunk, …)
	infLen   int

	// Per-round kernel state: the candidate count, the round seed (both
	// frozen during the parallel phase), per-chunk transmission counts,
	// and one bulk-draw buffer per worker for the pow2 fast loop.
	nc        int
	roundSeed uint64
	sentC     []int64
	drawBufs  [][]uint64

	round int
	sent  int64
}

func newBipsParProc(g *graph.Graph, cfg Config) (Process, error) {
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	br := cfg.branching()
	if err := br.Validate(); err != nil {
		return nil, err
	}
	offsets, neighbors := g.CSR()
	p := &bipsParProc{
		g:         g,
		offsets:   offsets,
		neighbors: neighbors,
		n:         g.N(),
		k:         br.K,
		rho:       br.Rho,
		fast:      cfg.FastSampling,
		obs:       cfg.Observer,
		pool:      newKernelPool(cfg.kernelWorkers()),
		infB:      make([]uint8, g.N()),
		candB:     make([]uint8, g.N()),
		infBuf:    make([]int32, g.N()+1),
		nextBuf:   make([]int32, g.N()+1),
		candBuf:   make([]int32, g.N()+1),
		hitBuf:    make([]uint8, g.N()+1),
		sentC:     make([]int64, chunksFor(g.N())),
	}
	if cfg.FastSampling {
		p.infCount = make([]int32, g.N())
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
		if _, pow2 := p.samp.Mask(); pow2 && !p.fast {
			// One L1-sized bulk-draw chunk per worker; at least K so a
			// block always holds one whole candidate.
			size := 2048
			if p.k > size {
				size = p.k
			}
			p.drawBufs = make([][]uint64, p.pool.workers())
			for i := range p.drawBufs {
				p.drawBufs[i] = make([]uint64, size)
			}
		}
	}
	if len(p.pool.start) > 0 {
		runtime.AddCleanup(p, func(kp *kernelPool) { kp.stop() }, p.pool)
	}
	return p, nil
}

// Reset prepares the run with source starts[0] and A_0 = set(starts).
func (p *bipsParProc) Reset(starts ...int32) error {
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
// hit-flag buffer. Shared state (infB, infCount, the CSR arrays, the
// candidate list) is read-only during the parallel phase; the only
// writes are hitBuf[chunk range] and sentC[chunk].
func (p *bipsParProc) runChunk(worker, chunk int) {
	r := p.pool.rands[worker]
	r.ReseedStream(p.roundSeed, uint64(chunk))
	lo := chunk * kernelChunk
	hi := lo + kernelChunk
	if hi > p.nc {
		hi = p.nc
	}
	cands := p.candBuf[lo:hi]
	hit := p.hitBuf[lo:hi]
	nb := p.neighbors
	offsets := p.offsets
	k := p.k
	rho := p.rho
	var sent int64
	switch {
	case p.fast:
		infCount := p.infCount
		for i, u := range cands {
			deg := offsets[u+1] - offsets[u]
			pp := float64(infCount[u]) / float64(deg)
			prob := 1 - missProb(pp, k)*(1-rho*pp)
			sent += int64(k) // expected-equivalent accounting
			if rho > 0 && r.Bernoulli(rho) {
				sent++
			}
			var h uint8
			if r.Bernoulli(prob) {
				h = 1
			}
			hit[i] = h
		}
	case p.reg > 0 && rho == 0:
		// Regular graph, integral branching: bipsProc's tight two-pass
		// loop, pass one only — the compaction pass runs sequentially
		// after the join. Bulk draws come from the worker's private
		// buffer; the chunked FillUint64 stream is fixed by the chunk's
		// candidate count, so it is identical however chunks are
		// scheduled.
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
	default:
		infB := p.infB
		for i, u := range cands {
			olo, ohi := offsets[u], offsets[u+1]
			deg := uint64(ohi - olo)
			samples := k
			if rho > 0 && r.Bernoulli(rho) {
				samples++
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

func (p *bipsParProc) Step(r *rng.Rand) {
	p.roundSeed = r.Uint64()
	// Collect candidates exactly as bipsProc: inclusive neighbourhood
	// Γ(A_t) in infected-list discovery order, source pre-marked so it
	// never enters the list. No randomness is consumed, so collection
	// order — and therefore the chunk grid — is worker-count-free.
	cands := p.candBuf
	candB := p.candB
	nb := p.neighbors
	offsets := p.offsets
	infected := p.infBuf[:p.infLen]
	nc := 0
	candB[p.source] = 1
	if p.fast {
		infCount := p.infCount
		for _, v := range infected {
			for _, u := range nb[offsets[v]:offsets[v+1]] {
				if candB[u] == 0 {
					candB[u] = 1
					cands[nc] = u
					nc++
					infCount[u] = 0
				}
				infCount[u]++
			}
		}
	} else if p.reg > 0 {
		// See bipsProc for the unroll/prefetch/full-break rationale.
		reg := int64(p.reg)
		full := p.n - 1
		pf := p.hitBuf
		last := len(infected) - 1
		for i, v := range infected {
			if nc == full {
				break
			}
			pf[p.n] = uint8(nb[int64(infected[min(i+8, last)])*reg])
			a := int64(v) * reg
			end := a + reg
			for ; a+1 < end; a += 2 {
				u0, u1 := nb[a], nb[a+1]
				old0 := candB[u0]
				candB[u0] = 1
				cands[nc] = u0
				nc += int(old0) ^ 1
				old1 := candB[u1]
				candB[u1] = 1
				cands[nc] = u1
				nc += int(old1) ^ 1
			}
			if a < end {
				u := nb[a]
				old := candB[u]
				candB[u] = 1
				cands[nc] = u
				nc += int(old) ^ 1
			}
		}
	} else {
		for _, v := range infected {
			for _, u := range nb[offsets[v]:offsets[v+1]] {
				old := candB[u]
				candB[u] = 1
				cands[nc] = u
				nc += int(old) ^ 1
			}
		}
	}
	cands = cands[:nc]
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

	// Swap infected sets: clear the per-round candidate marks (including
	// the source pre-mark) and the old membership marks, then stamp the
	// new set.
	clearByteMembers(candB, cands)
	candB[p.source] = 0
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

func (p *bipsParProc) Done() bool           { return p.infLen == p.n }
func (p *bipsParProc) Round() int           { return p.round }
func (p *bipsParProc) ReachedCount() int    { return p.infLen }
func (p *bipsParProc) Transmissions() int64 { return p.sent }
func (p *bipsParProc) Reached(v int32) bool { return p.infB[v] != 0 }

// AppendReached appends A_t in ascending vertex order.
func (p *bipsParProc) AppendReached(dst []int32) []int32 {
	for v, x := range p.infB {
		if x != 0 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}
