package process

import (
	"math"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// bipsProc is the native BIPS (biased infection with persistent source)
// engine: the first start vertex is the permanently infected source; at
// every round each vertex with an infected neighbour samples K random
// neighbours with replacement (plus one with probability Rho) and joins
// A_{t+1} iff at least one sample lies in A_t. BIPS is the time-reversal
// dual of COBRA (Theorem 4); a Step costs O(Σ_{v∈A_t} deg(v)).
//
// Membership lives in byte maps rather than bitsets: `infB[v]` is 1 when
// v ∈ A_t, `candB[v]` is 1 once v has been discovered as a candidate this
// round. A byte map costs 8× the memory of a bitset (16 KB at n = 2^14 —
// still L1-resident) but the per-arc update is a plain load/store pair
// with no shift/mask arithmetic and, crucially, no read-modify-write of a
// word shared by 64 vertices: with a 256-word bitset, consecutive arcs
// hit the same word often enough that the OR chains serialize through
// store-forwarding, and the candidate scan touches every arc of the
// infected set. The hot loops are branchless — candidate discovery and
// the hit test are folded into unconditional stores plus arithmetic index
// advancement into fixed n+1-length buffers (see cobraProc for why: the
// membership branches are data-dependent coin flips whose mispredicts
// flush the pipeline and squash the out-of-order window hiding the random
// row loads). infCount (d_A per candidate) is touched only on the
// fast-sampling path.
//
// The generator is consumed exactly like the test-only reference
// implementation — candidates are discovered in infected-list order, and
// per candidate the exact path draws an optional Rho Bernoulli then one
// bounded draw per sample, while the fast path draws the optional Rho
// Bernoulli then one Bernoulli against the closed-form infection
// probability, computed with the identical float expression. The
// differential harness (internal/process/difftest) holds the reference
// and pins the byte-identity; do not reorder draws or refactor the
// probability arithmetic.
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
	fast bool
	obs  RoundObserver

	source   int32
	infB     []uint8 // infB[v] == 1 iff v ∈ A_t
	candB    []uint8 // candB[v] == 1 iff v already discovered this round
	infCount []int32
	infBuf   []int32  // A_t, first infLen entries (+ sentinel slot)
	nextBuf  []int32  // A_{t+1} under construction
	candBuf  []int32  // Γ(A_t) minus the source, in discovery order
	hitBuf   []uint8  // per-candidate hit flags for the two-pass tight loop
	drawBuf  []uint64 // bulk-generated draws, one L1-sized chunk at a time
	infLen   int

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
		fast:      cfg.FastSampling,
		obs:       cfg.Observer,
		infB:      make([]uint8, g.N()),
		candB:     make([]uint8, g.N()),
		infBuf:    make([]int32, g.N()+1),
		nextBuf:   make([]int32, g.N()+1),
		candBuf:   make([]int32, g.N()+1),
		hitBuf:    make([]uint8, g.N()+1),
	}
	if cfg.FastSampling {
		p.infCount = make([]int32, g.N())
	}
	if reg, err := g.Regularity(); err == nil {
		p.reg = int32(reg)
		p.samp = rng.NewBounded(uint64(reg))
		if _, pow2 := p.samp.Mask(); pow2 && !p.fast {
			// One L1-sized chunk of bulk draws for the tight loop; at
			// least K so a block always holds one whole candidate.
			size := 2048
			if p.k > size {
				size = p.k
			}
			p.drawBuf = make([]uint64, size)
		}
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

func (p *bipsProc) Step(r *rng.Rand) {
	sentBefore := p.sent
	// Collect candidates: the inclusive neighbourhood Γ(A_t), in
	// infected-list discovery order (the order the RNG stream is spent
	// in). The byte maps and CSR arrays are hoisted into locals throughout
	// Step: stores through the maps could alias p, so without the hoist
	// the compiler reloads each slice header from p on every arc. On the
	// fast path, accumulate d_A(u) while scanning.
	cands := p.candBuf
	candB := p.candB
	nb := p.neighbors
	offsets := p.offsets
	infected := p.infBuf[:p.infLen]
	nc := 0
	// Pre-mark the source so it never enters the candidate list: the
	// protocol skips it without consuming any draws, so excluding it here
	// keeps the RNG stream identical while letting every evaluation loop
	// below run with no per-candidate source test at all. The mark is
	// undone after the round's cleanup.
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
		// Regular graph: row v is nb[v·reg : (v+1)·reg] — no offsets
		// loads — and discovery is branchless: mark and store
		// unconditionally, advance on a fresh candidate byte. Once every
		// non-source vertex is a candidate no row can contribute more, so
		// dense rounds break out of the scan early (the check is per row,
		// not per arc, and predicts perfectly until the exit).
		// The row scan is unrolled two arcs per iteration (plus an odd
		// tail): the per-arc work is four µops, so halving the loop
		// control is a measurable slice of the round. A duplicate
		// neighbour inside one pair is still counted once — the second
		// byte load observes the first store.
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

	next := p.nextBuf
	next[0] = p.source // the source is always infected
	j := 1

	k := p.k
	rho := p.rho
	if p.fast {
		infCount := p.infCount
		for _, u := range cands {
			deg := offsets[u+1] - offsets[u]
			pp := float64(infCount[u]) / float64(deg)
			prob := 1 - missProb(pp, k)*(1-rho*pp)
			p.sent += int64(k) // expected-equivalent accounting
			if rho > 0 && r.Bernoulli(rho) {
				p.sent++
			}
			if r.Bernoulli(prob) {
				next[j] = u
				j++
			}
		}
	} else if p.reg > 0 && rho == 0 {
		// Regular graph, integral branching: the tight loop, in two
		// passes. Pass one draws every sample (no short-circuit on the
		// first hit, so transmission counts reflect the protocol as
		// defined) and records a per-candidate hit flag; its iterations
		// carry no cross-iteration data dependency, so the out-of-order
		// core overlaps the random row loads across candidates. On the
		// power-of-two degree path the draws are bulk-generated with
		// FillUint64 in L1-sized chunks — the candidate count fixes the
		// draw count up front, so the chunked stream is identical to
		// per-call draws, state included — and K = 2 (the paper's default
		// branching) gets a fully unrolled body. Pass two compacts the
		// hit candidates into A_{t+1} — a branchless index bump over
		// L1-resident flags, keeping the serial part of the round off
		// the load-latency chain.
		reg := int64(p.reg)
		samp := p.samp
		mask, pow2 := p.samp.Mask()
		infB := p.infB
		hit := p.hitBuf
		if pow2 {
			draws := p.drawBuf
			blockCands := len(draws) / k
			for lo := 0; lo < len(cands); lo += blockCands {
				hi := lo + blockCands
				if hi > len(cands) {
					hi = len(cands)
				}
				block := cands[lo:hi]
				r.FillUint64(draws[:len(block)*k])
				pos := 0
				if k == 2 {
					for bi, u := range block {
						base := int64(u) * reg
						w0 := nb[base+int64(draws[pos]&mask)]
						w1 := nb[base+int64(draws[pos+1]&mask)]
						pos += 2
						hit[lo+bi] = infB[w0] | infB[w1]
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
						hit[lo+bi] = hits
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
		for i, u := range cands {
			next[j] = u
			j += int(hit[i])
		}
		p.sent += int64(k) * int64(len(cands))
	} else {
		infB := p.infB
		for _, u := range cands {
			lo, hi := offsets[u], offsets[u+1]
			deg := uint64(hi - lo)
			samples := k
			if rho > 0 && r.Bernoulli(rho) {
				samples++
			}
			var hits uint8
			for i := 0; i < samples; i++ {
				p.sent++
				w := nb[lo+int64(r.Uint64n(deg))]
				hits |= infB[w]
			}
			if hits != 0 {
				next[j] = u
				j++
			}
		}
	}

	// Swap infected sets: clear the per-round candidate marks (including
	// the source pre-mark) and the old membership marks (member-wise when
	// sparse, memclr when dense), then stamp the new set.
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
	if p.obs != nil {
		p.obs(RoundStat{Round: p.round, Active: p.infLen, Reached: p.infLen,
			Transmissions: p.sent - sentBefore})
	}
}

// missProb returns (1-p)^k with small integer exponents multiplied out —
// identical, operation for operation, to the difftest reference's copy so
// the fast path's infection probabilities match bit for bit. math.Pow
// costs more than the rest of a fast-path candidate evaluation.
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
