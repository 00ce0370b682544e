// Pruned best-response dynamics: the sub-quadratic half of the Engine.
//
// The exact CGBA path re-scores every player's full strategy set each
// iteration and dirties every incident player on each move. On the
// paper's topology the resource set is small and shared (a handful of
// stations and servers cover the whole area), so each move dirties
// nearly everyone and the solve cost grows quadratically with the
// population. Related work (arXiv 1701.07405, arXiv 2501.02952) argues
// offloading decisions localize to a few nearby cells — a player's best
// response almost never needs the whole (station, server) grid.
//
// The fast path exploits both observations:
//
//   - Incremental congestion sums. The per-resource loads p_r(z) are
//     already maintained in O(resources-touched) per move; the pruned
//     loop scores candidates directly against them (fastMove) and skips
//     the exact path's incidence-walk invalidation entirely — no O(n)
//     dirty fan-out per move.
//
//   - Top-k shortlists. Each player ranks its strategies by the static
//     self-congestion score Σ_r m_r·p_{i,r}² (the congestion it would
//     add to an empty system — small scores mean strong channels and
//     fast servers) and keeps the k best in a flat arena. Best-response
//     scans stream only those k candidates. Shortlists are rebuilt
//     lazily, keyed on the game's weight generation: Builder.Build,
//     Mutation.Commit, and Game.SetResourceWeight all advance it, so
//     channel/σ changes and population churn invalidate exactly once,
//     and a game reached via mutations yields bit-identical shortlists
//     to a fresh build of the same content.
//
//   - Sweep dynamics with exact certification. The pruned loop runs
//     Gauss–Seidel sweeps (players in index order, each dissatisfied
//     player moves to its shortlist best response immediately). When a
//     sweep makes no move the loop switches to a full-width sweep that
//     evaluates every strategy with the exact path's arithmetic; only a
//     quiet full-width sweep terminates the solve. The returned profile
//     is therefore a certified λ-equilibrium of the *unpruned* game —
//     the shortlist is a heuristic for speed, never for correctness —
//     so Theorem 2's 2.62/(1−8λ) approximation bound still applies.
//
// Equivalence contract: when the effective shortlist width covers every
// player's strategy set (small games, or Shortlist ≥ max strategies, or
// ShortlistFull), Engine.CGBA routes to the unmodified exact path and
// results stay bit-identical to the seed. Both paths are serial (only
// CGBASharded runs on a pool), and the pruned path is deterministic: same
// game bits, config, and RNG state give the same profile. engine_fast_test.go and
// FuzzIncrementalBestResponseEquivalence enforce all of this.
package game

import (
	"math"

	"eotora/internal/rng"
)

// DefaultShortlist is the top-k width the zero-valued CGBAConfig.Shortlist
// selects. 16 covers every strategy of the package's small test games
// (keeping them on the bit-identical exact path) while pruning the
// paper's 6-station × 16-server grid (up to 96 pairs) ~6x. See
// OPERATIONS.md for tuning guidance.
const DefaultShortlist = 16

// ShortlistFull disables pruning: CGBA always takes the exact path. Any
// negative Shortlist value behaves the same; the named constant is the
// documented escape hatch.
const ShortlistFull = -1

// fastSweepCheckMask throttles deadline polls inside a pruned sweep: one
// poll every 256 players (plus one at each sweep start). The poll count
// is a function of the player count and sweep structure alone, so
// counted checkpoint budgets stay deterministic.
const fastSweepCheckMask = 255

// fastState holds the Engine's lazily derived shortlist tables. The
// tables depend only on the game's structure and premultiplied weight
// factors, both tracked by Game.weightGen; they survive solves, profile
// resets, and pool attachment.
type fastState struct {
	game *Game  // game the tables were derived from
	wgen uint64 // Game.weightGen at derivation (0 = never built)
	k    int    // shortlist width the tables were built for

	// Shortlist CSR: player i's entries are slStrat[slOff[i]:slOff[i+1]]
	// (strategy indices, ascending), and entry e's uses are
	// slUses[slUseOff[e]:slUseOff[e+1]] — a flat copy so the hot scan
	// streams one array exactly like the exact path's arena pass.
	slOff    []int32
	slStrat  []int32
	slUseOff []int32
	slUses   []use

	// rho[i] bounds how fast player i's costs can drift: the largest
	// premultiplied factor m_r·p_{i,r} over all of i's uses. A total
	// absolute load drift of ΔD since i was last scored can move its
	// current cost and its best-response cost by at most rho[i]·ΔD each.
	rho []float64

	// Per-solve sweep-skip state (reset by cgbaPruned): slack[i] is how
	// far player i was from dissatisfaction when last scored (-1 = never
	// scored this solve), lastD[i] the drift accumulator at that moment,
	// and drift the running Σ_r |Δload_r| over all moves this solve.
	slack []float64
	lastD []float64
	drift float64

	// Selection scratch for rebuildShortlists (top-k by score).
	topScore []float64
	topStrat []int32
}

// effectiveShortlist resolves the CGBAConfig.Shortlist knob.
func effectiveShortlist(v int) int {
	if v == 0 {
		return DefaultShortlist
	}
	if v < 0 {
		return 0 // exact
	}
	return v
}

// maxStrategyCount returns the largest strategy set of any player.
func (g *Game) maxStrategyCount() int {
	max := 0
	for i := 0; i+1 < len(g.strOff); i++ {
		if n := int(g.strOff[i+1] - g.strOff[i]); n > max {
			max = n
		}
	}
	return max
}

// rebuildShortlists derives the top-k tables for the bound game. Cost is
// one arena pass plus an O(S·k) insertion select per player; it runs
// once per (game structure, weights) generation, not per solve.
func (e *Engine) rebuildShortlists(k int) {
	g := e.g
	f := &e.fast
	n := g.Players()

	f.slOff = resizeInt32(f.slOff, n+1)
	f.rho = resizeFloat(f.rho, n)
	// Size the tables once for Σᵢ min(k, |Sᵢ|) entries of at most maxUses
	// uses each, instead of growing them by appends.
	entries := 0
	for i := 0; i < n; i++ {
		entries += min(k, g.StrategyCount(i))
	}
	f.slStrat = reserveSlack(f.slStrat[:0], entries)
	f.slUseOff = append(reserveSlack(f.slUseOff[:0], entries+1), 0)
	f.slUses = reserveSlack(f.slUses[:0], entries*g.maxUses)
	if cap(f.topScore) < k {
		f.topScore = make([]float64, k)
		f.topStrat = make([]int32, k)
	}
	top, topStrat := f.topScore[:k], f.topStrat[:k]

	f.slOff[0] = 0
	for i := 0; i < n; i++ {
		first, last := g.playerStrategies(i)
		rho := 0.0
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			if u.wm > rho {
				rho = u.wm
			}
		}
		f.rho[i] = rho
		count := int(last - first)
		if count <= k {
			// Full width: every strategy, index order — the pruned scan
			// then visits the same candidates in the same order as the
			// exact argmin.
			for s := 0; s < count; s++ {
				e.appendShortlistEntry(int32(s), g.uses[g.useOff[first+int32(s)]:g.useOff[first+int32(s)+1]])
			}
			f.slOff[i+1] = int32(len(f.slStrat))
			continue
		}
		// Top-k smallest static self-cost Σ wm·w, ties broken by lower
		// strategy index (insertion keeps the selection stable and
		// deterministic).
		filled := 0
		for s := 0; s < count; s++ {
			score := 0.0
			for _, u := range g.uses[g.useOff[first+int32(s)]:g.useOff[first+int32(s)+1]] {
				score += u.wm * u.w
			}
			if filled == k && score >= top[filled-1] {
				continue
			}
			at := filled
			if filled < k {
				filled++
			} else {
				at = k - 1
			}
			for at > 0 && top[at-1] > score {
				top[at], topStrat[at] = top[at-1], topStrat[at-1]
				at--
			}
			top[at], topStrat[at] = score, int32(s)
		}
		// Emit in ascending strategy index so cost ties inside the
		// shortlist resolve exactly as the full-width argmin would.
		sel := topStrat[:filled]
		for a := 1; a < len(sel); a++ {
			v := sel[a]
			b := a
			for b > 0 && sel[b-1] > v {
				sel[b] = sel[b-1]
				b--
			}
			sel[b] = v
		}
		for _, s := range sel {
			e.appendShortlistEntry(s, g.uses[g.useOff[first+s]:g.useOff[first+s+1]])
		}
		f.slOff[i+1] = int32(len(f.slStrat))
	}
	f.game, f.wgen, f.k = g, g.weightGen, k
}

func (e *Engine) appendShortlistEntry(s int32, uses []use) {
	f := &e.fast
	f.slStrat = append(f.slStrat, s)
	f.slUses = append(f.slUses, uses...)
	f.slUseOff = append(f.slUseOff, int32(len(f.slUses)))
}

// fastMove switches player i to strategy s, updating only the loads —
// O(resources-touched), no incidence-walk invalidation. The load updates
// follow Game.applyMove's order (all old uses removed, then all new
// added) so the load bits match the exact path's. Callers own cache
// consistency: the pruned loop never reads the per-player caches and
// invalidates them before any early return.
func (e *Engine) fastMove(i, s int) {
	e.tally.moves++
	g := e.g
	f := &e.fast
	drift := 0.0
	for _, u := range g.strategyUses(i, e.profile[i]) {
		e.loads[u.res] -= u.w
		drift += u.w
	}
	e.profile[i] = s
	for _, u := range g.strategyUses(i, s) {
		e.loads[u.res] += u.w
		drift += u.w
	}
	f.drift += drift
}

// sweepScore evaluates player i against the current loads: its current
// cost and its best response over either the shortlist (full=false) or
// the whole strategy set (full=true). The full-width branch performs the
// exact same floating-point operations in the same order as refresh, so
// certification agrees bit-for-bit with the exact path's equilibrium
// test. Loads are restored before returning.
func (e *Engine) sweepScore(i int, full bool) (cur float64, best int32, bestCost float64) {
	g := e.g
	first, last := g.playerStrategies(i)
	cs := first + int32(e.profile[i])

	cur = 0.0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		cur += u.wm * e.loads[u.res]
	}

	saved := 0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		e.saveRes[saved] = int32(u.res)
		e.saveLoad[saved] = e.loads[u.res]
		saved++
		e.loads[u.res] -= u.w
	}

	best, bestCost = -1, math.Inf(1)
	if full {
		base := g.useOff[first]
		uses := g.uses[base:g.useOff[last]]
		offs := g.useOff[first : last+1]
		k := 0
		for s := 0; s < len(offs)-1; s++ {
			end := int(offs[s+1] - base)
			c := 0.0
			for ; k < end; k++ {
				u := &uses[k]
				c += u.wm * (e.loads[u.res] + u.w)
			}
			if c < bestCost {
				best, bestCost = int32(s), c
			}
		}
	} else {
		f := &e.fast
		lo, hi := f.slOff[i], f.slOff[i+1]
		k := f.slUseOff[lo]
		for en := lo; en < hi; en++ {
			end := f.slUseOff[en+1]
			c := 0.0
			for ; k < end; k++ {
				u := &f.slUses[k]
				c += u.wm * (e.loads[u.res] + u.w)
			}
			if c < bestCost {
				best, bestCost = f.slStrat[en], c
			}
		}
	}

	for k := 0; k < saved; k++ {
		e.loads[e.saveRes[k]] = e.saveLoad[k]
	}
	return cur, best, bestCost
}

// greedyFill seeds the pruned dynamics: loads start empty and players
// 0..n−1 place sequentially on their shortlist best response against the
// players placed so far. Each player adds its uses exactly once in index
// order, so the resulting loads carry the same bits as a from-scratch
// reload of the final profile. Caches are left invalid, matching Reset.
func (e *Engine) greedyFill() {
	g := e.g
	f := &e.fast
	clearFloats(e.loads)
	for i := range e.profile {
		lo, hi := f.slOff[i], f.slOff[i+1]
		k := f.slUseOff[lo]
		best, bestCost := int32(0), math.Inf(1)
		for en := lo; en < hi; en++ {
			end := f.slUseOff[en+1]
			c := 0.0
			for ; k < end; k++ {
				u := &f.slUses[k]
				c += u.wm * (e.loads[u.res] + u.w)
			}
			if c < bestCost {
				best, bestCost = f.slStrat[en], c
			}
		}
		e.profile[i] = int(best)
		for _, u := range g.strategyUses(i, int(best)) {
			e.loads[u.res] += u.w
		}
	}
	e.invalidateAll()
}

// cgbaPruned is the shortlist fast path of Engine.CGBA: Gauss–Seidel
// sweeps over pruned best responses, terminated only by a quiet
// full-width certification sweep. λ has been validated and k < the
// game's max strategy count when this runs. Serial by construction.
func (e *Engine) cgbaPruned(cfg CGBAConfig, src *rng.Source, k int) (Result, error) {
	g := e.g
	n := g.Players()
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 200*n + 10000
	}

	f := &e.fast
	if f.game != g || f.wgen != g.weightGen || f.k != k {
		e.rebuildShortlists(k)
	}

	if cfg.Initial != nil {
		if err := e.Reset(cfg.Initial); err != nil {
			return Result{}, err
		}
	} else {
		// Congestion-aware greedy fill instead of the exact path's random
		// profile: players place sequentially, each best-responding (over
		// its shortlist) to the load of the players already placed. The
		// fill is one sweep's work, lands near an equilibrium, and draws
		// no RNG — deterministic given the game bits. Like any initial
		// profile it only affects which λ-equilibrium the certified
		// dynamics select, never the guarantee.
		e.greedyFill()
	}

	var objTrace []float64
	if cfg.TrackObjective {
		objTrace = append(objTrace, g.SocialCost(e.profile))
	}

	f.slack = resizeFloat(f.slack, n)
	f.lastD = resizeFloat(f.lastD, n)
	for i := range f.slack {
		f.slack[i] = -1
	}
	f.drift = 0

	moves := 0
	result := func(truncated bool) Result {
		return Result{
			Profile:        e.resultProfile(),
			Objective:      e.SocialCost(),
			Iterations:     moves,
			ObjectiveTrace: objTrace,
			Truncated:      truncated,
		}
	}

	full := false
	for {
		moved := false
		for i := 0; i < n; i++ {
			// Deadline checkpoint at each sweep start and every 256
			// players: deterministic poll count, and the current iterate
			// is always a feasible profile.
			if i&fastSweepCheckMask == 0 && e.deadline.Expired() {
				e.invalidateAll()
				e.recordCGBA(moves)
				return result(true), nil
			}
			// Drift-bound skip (pruned sweeps only): when the total load
			// drift since player i was last scored cannot have closed its
			// dissatisfaction slack, the rescore is a no-op — skip it.
			// The bound is a heuristic (floating-point drift is not an
			// exact science); a wrongly skipped player is caught by the
			// full-width certification sweep, which never skips.
			if !full && f.slack[i] >= 0 && 2*f.rho[i]*(f.drift-f.lastD[i]) < f.slack[i] {
				e.tally.hits++
				continue
			}
			cur, br, brCost := e.sweepScore(i, full)
			e.tally.misses++
			if full {
				// Certification doubles as a cache refresh; the values
				// stay valid only if the sweep finishes quiet (any early
				// return below invalidates).
				e.curCost[i], e.brCost[i], e.brStrat[i] = cur, brCost, br
				e.dirty[i] = false
			}
			// Algorithm 3 line 2 with the exact path's relEps guard.
			if (1-cfg.Lambda)*cur > brCost+relEps*(cur+1) {
				e.fastMove(i, int(br))
				// The mover now sits on its best response: zero slack, so
				// any further drift triggers a rescore.
				f.slack[i], f.lastD[i] = 0, f.drift
				moves++
				moved = true
				if cfg.TrackObjective {
					objTrace = append(objTrace, g.SocialCost(e.profile))
				}
				if moves >= maxIter {
					e.invalidateAll()
					e.recordCGBA(moves)
					return result(false), ErrNoConverge
				}
			} else {
				f.slack[i] = brCost + relEps*(cur+1) - (1-cfg.Lambda)*cur
				f.lastD[i] = f.drift
			}
		}
		if moved {
			// Progress was made; go back to cheap pruned sweeps (a
			// full-width sweep that moved perturbs loads, so shortlist
			// opportunities may have reopened).
			full = false
			continue
		}
		if full {
			break // quiet full-width sweep: certified λ-equilibrium
		}
		full = true
	}
	// The final quiet full-width sweep refreshed every player's cache
	// against the terminal loads, so the engine's caches are left fully
	// consistent (IsEquilibrium and PlayerCost are cheap afterwards).
	e.recordCGBA(moves)
	return result(false), nil
}
