// Sharded slot solve: per-cluster games in parallel plus serial boundary
// reconciliation (DESIGN.md §13).
//
// The congestion game couples players only through shared resources, so
// a topology whose resources split into disjoint clusters factorizes the
// game: players whose every strategy stays inside one cluster (interior
// players) interact only with each other, and the few players whose
// strategy sets span clusters (boundary players) are the sole coupling.
// A ShardPlan declares that factorization; Engine.CGBASharded exploits
// it with an outer reconciliation loop:
//
//	round:
//	 1. parallel  — each shard runs pruned Gauss–Seidel sweeps (the PR 6
//	    fast path, per-shard drift accounting) over its interior players
//	    to a locally certified full-width quiescence, with boundary
//	    players' load contributions frozen;
//	 2. serial    — full-width Gauss–Seidel sweeps over the boundary
//	    players against the shards' congestion sums, until quiet;
//	 3. serial    — a full-width certification sweep over every player
//	    with the exact path's arithmetic (refresh); only a quiet sweep
//	    terminates the solve, so the result is a certified λ-equilibrium
//	    of the *global, unpruned* game — sharding, like the shortlist, is
//	    a heuristic for speed, never for correctness.
//
// Determinism and pool-invariance: shards touch disjoint state (their
// players' profile entries and slack slots, their clusters' loads), draw
// no RNG, and merge tallies in shard order, so the result is identical
// at every pool size; phases 2 and 3 are serial. Wall-clock deadlines
// are polled inside shard sweeps against a read-only snapshot
// (solver.Deadline.ExpireTime) so a shard that blows the budget degrades
// alone — it stops moving its own players and the slot still commits a
// feasible global profile; counted checkpoints are consumed only at
// serial boundaries, keeping deterministic budgets pool-invariant.
package game

import (
	"fmt"
	"math"
	"time"

	"eotora/internal/par"
	"eotora/internal/rng"
)

// ShardPlan assigns each player of a game to a shard or to the boundary
// set. Interior players of one shard must use only resources no other
// shard's interior players use (CGBASharded verifies this before its
// first parallel region); boundary players may use anything. Plans are
// built by the caller — core derives them from a topology partition
// (internal/shard) — and are reusable across solves and, via Reset,
// across churn.
type ShardPlan struct {
	shards int
	player []int32 // player → shard, −1 = boundary

	// Compiled CSR: shard s's interior players are
	// order[off[s]:off[s+1]], ascending; boundary players ascending.
	order    []int32
	off      []int32
	boundary []int32

	// Disjointness-check memo: the game and structure generation the plan
	// was last verified against, plus the resource→shard scratch.
	checkedGame *Game
	checkedGen  uint64
	resShard    []int32
}

// NewShardPlan returns a plan assigning player i to shard player[i]
// (−1 = boundary). See Reset for validation rules.
func NewShardPlan(shards int, player []int32) (*ShardPlan, error) {
	p := &ShardPlan{}
	if err := p.Reset(shards, player); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset refills the plan in place (the churn path — no reallocation when
// capacities suffice). shards must be at least 1 and every entry of
// player must lie in [−1, shards). The player slice is copied.
func (p *ShardPlan) Reset(shards int, player []int32) error {
	if shards < 1 {
		return fmt.Errorf("game: shard plan needs at least 1 shard, got %d", shards)
	}
	for i, s := range player {
		if s < -1 || int(s) >= shards {
			return fmt.Errorf("game: player %d assigned to shard %d outside [-1, %d)", i, s, shards)
		}
	}
	p.shards = shards
	p.player = append(p.player[:0], player...)
	p.checkedGame, p.checkedGen = nil, 0

	// Counting sort into the CSR (stable: players ascending per shard).
	p.off = resizeInt32(p.off, shards+1)
	for s := range p.off {
		p.off[s] = 0
	}
	p.boundary = p.boundary[:0]
	for _, s := range player {
		if s >= 0 {
			p.off[s+1]++
		}
	}
	for s := 0; s < shards; s++ {
		p.off[s+1] += p.off[s]
	}
	p.order = resizeInt32(p.order, int(p.off[shards]))
	cursor := append([]int32(nil), p.off[:shards]...)
	if cap(p.resShard) >= shards {
		cursor = p.resShard[:0] // borrow scratch to avoid the alloc
		cursor = append(cursor, p.off[:shards]...)
	}
	for i, s := range player {
		if s < 0 {
			p.boundary = append(p.boundary, int32(i))
			continue
		}
		p.order[cursor[s]] = int32(i)
		cursor[s]++
	}
	return nil
}

// Shards returns the number of shards in the plan.
func (p *ShardPlan) Shards() int {
	if p == nil {
		return 0
	}
	return p.shards
}

// Players returns the number of players the plan covers.
func (p *ShardPlan) Players() int { return len(p.player) }

// Boundary returns how many players are in the boundary set.
func (p *ShardPlan) Boundary() int { return len(p.boundary) }

// check verifies the plan against the bound game: the player count must
// match, and interior players' resources must be disjoint across shards
// (the property that makes the parallel region race-free). The result is
// memoized per game structure generation — one arena pass per build or
// churn, not per solve.
func (p *ShardPlan) check(g *Game) error {
	if len(p.player) != g.Players() {
		return fmt.Errorf("game: shard plan covers %d players, game has %d", len(p.player), g.Players())
	}
	if p.checkedGame == g && p.checkedGen == g.structGen {
		return nil
	}
	p.resShard = resizeInt32(p.resShard, g.Resources())
	for r := range p.resShard {
		p.resShard[r] = -1
	}
	for i, s := range p.player {
		if s < 0 {
			continue
		}
		first, last := g.playerStrategies(i)
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			switch p.resShard[u.res] {
			case -1:
				p.resShard[u.res] = s
			case s:
			default:
				return fmt.Errorf("game: resource %d used by interior players of shards %d and %d — plan is not resource-disjoint",
					u.res, p.resShard[u.res], s)
			}
		}
	}
	p.checkedGame, p.checkedGen = g, g.structGen
	return nil
}

// shardSolve is one shard's private solve state for a parallel region:
// scratch the sweeps need (sweepScore's in-place removal save slots),
// the shard's drift accumulator, and its tallies, merged in shard order
// after the region.
type shardSolve struct {
	saveRes   []int32
	saveLoad  []float64
	drift     float64
	moves     int64
	hits      int64
	misses    int64
	truncated bool
	overrun   bool
}

// shardSweepTask is the persistent parallel-region task (a pointer to it
// converts to par.Task without allocating).
type shardSweepTask struct {
	e      *Engine
	plan   *ShardPlan
	lambda float64
	budget int64 // per-shard move cap for this region
	expire time.Time
	timed  bool
}

// Run solves shard sIdx's interior game to a locally certified
// quiescence: pruned sweeps with per-shard drift-bound skipping, then a
// full-width sweep; only a quiet full-width sweep ends the shard's
// region (mirroring cgbaPruned, restricted to the shard's players).
func (t *shardSweepTask) Run(sIdx int) {
	e := t.e
	f := &e.fast
	ss := &e.shardSlv[sIdx]
	players := t.plan.order[t.plan.off[sIdx]:t.plan.off[sIdx+1]]

	full := false
	for {
		moved := false
		for idx, pi := range players {
			i := int(pi)
			// Wall-clock-only poll against the pre-region snapshot: no
			// shared deadline state is touched, and a blown budget stops
			// this shard alone.
			if idx&fastSweepCheckMask == 0 && t.timed && !time.Now().Before(t.expire) {
				ss.truncated = true
				return
			}
			// Drift-bound skip against the *shard's* drift: moves in other
			// shards cannot touch this shard's resources, so they never
			// invalidate the bound — the isolation that makes metro-scale
			// sweeps cheap even on one core.
			if !full && f.slack[i] >= 0 && 2*f.rho[i]*(ss.drift-f.lastD[i]) < f.slack[i] {
				ss.hits++
				continue
			}
			cur, br, brCost := e.shardSweepScore(i, full, ss)
			ss.misses++
			if (1-t.lambda)*cur > brCost+relEps*(cur+1) {
				e.shardMove(i, int(br), ss)
				f.slack[i], f.lastD[i] = 0, ss.drift
				moved = true
				if ss.moves >= t.budget {
					ss.overrun = true
					return
				}
			} else {
				f.slack[i] = brCost + relEps*(cur+1) - (1-t.lambda)*cur
				f.lastD[i] = ss.drift
			}
		}
		if moved {
			full = false
			continue
		}
		if full {
			return // quiet full-width sweep: locally converged
		}
		full = true
	}
}

// shardSweepScore is sweepScore with the save scratch taken from the
// shard's private state instead of the engine's shared buffers — the
// only change; the arithmetic is identical. The in-place load removal
// touches only the shard's own resources (guaranteed by ShardPlan.check)
// and is restored before returning.
func (e *Engine) shardSweepScore(i int, full bool, ss *shardSolve) (cur float64, best int32, bestCost float64) {
	g := e.g
	first, last := g.playerStrategies(i)
	cs := first + int32(e.profile[i])

	cur = 0.0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		cur += u.wm * e.loads[u.res]
	}

	saved := 0
	for _, u := range g.uses[g.useOff[cs]:g.useOff[cs+1]] {
		ss.saveRes[saved] = int32(u.res)
		ss.saveLoad[saved] = e.loads[u.res]
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
		e.loads[ss.saveRes[k]] = ss.saveLoad[k]
	}
	return cur, best, bestCost
}

// shardMove is fastMove with the move count and drift accumulated into
// the shard's private state.
func (e *Engine) shardMove(i, s int, ss *shardSolve) {
	ss.moves++
	g := e.g
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
	ss.drift += drift
}

// SetPool attaches the worker pool CGBASharded runs its per-shard
// interior sweeps on (nil detaches it — the default, fully serial). It is
// the engine's only parallel region: CGBA and the pruned path never touch
// the pool. The pool only changes where shards execute, never their
// results: solves are bit-identical for every pool size. The engine must
// not share a pool region with another engine concurrently (one Run at a
// time per pool).
func (e *Engine) SetPool(p *par.Pool) { e.pool = p }

// CGBASharded runs CGBA factorized by the plan: parallel per-shard
// interior solves, serial boundary reconciliation, and a serial global
// certification sweep that alone may terminate the solve. The returned
// profile is a certified λ-equilibrium of the global unpruned game —
// the same guarantee Engine.CGBA provides — and the result is identical
// at every pool size. A nil or single-shard plan delegates to CGBA
// outright (bit-identical to the unsharded path by construction), as do
// configurations the sharded loop does not model: non-default pivots
// (its dynamics are Gauss–Seidel, the shortlist path's rule) and
// per-move objective tracking.
func (e *Engine) CGBASharded(cfg CGBAConfig, plan *ShardPlan, src *rng.Source) (Result, error) {
	if plan == nil || plan.Shards() <= 1 {
		return e.CGBA(cfg, src)
	}
	if cfg.Pivot != PivotMaxImprovement || cfg.TrackObjective {
		return e.CGBA(cfg, src)
	}
	if cfg.Lambda < 0 || cfg.Lambda >= 0.125 {
		return Result{}, fmt.Errorf("game: λ = %v outside [0, 0.125)", cfg.Lambda)
	}
	g := e.g
	n := g.Players()
	if err := plan.check(g); err != nil {
		return Result{}, err
	}

	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 200*n + 10000
	}

	// Shortlists drive the pruned shard sweeps; an exact-width request
	// (ShortlistFull) widens them to cover every strategy set, which makes
	// the pruned scan the exact argmin in index order.
	k := effectiveShortlist(cfg.Shortlist)
	if k == 0 || k > g.maxStrategyCount() {
		k = g.maxStrategyCount()
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
		// Same deterministic, RNG-free seed as the pruned path.
		e.greedyFill()
	}

	f.slack = resizeFloat(f.slack, n)
	f.lastD = resizeFloat(f.lastD, n)

	shards := plan.shards
	if cap(e.shardSlv) < shards {
		e.shardSlv = make([]shardSolve, shards)
	} else {
		e.shardSlv = e.shardSlv[:shards]
	}

	moves := 0
	result := func(truncated bool) Result {
		return Result{
			Profile:    e.profile.Clone(),
			Objective:  g.SocialCost(e.profile),
			Iterations: moves,
			Truncated:  truncated,
		}
	}

	for {
		// Serial checkpoint once per round: the counted budget is consumed
		// at the same points regardless of pool size.
		if e.deadline.Expired() {
			e.invalidateAll()
			e.recordCGBA(moves)
			return result(true), nil
		}

		// Phase 1 — parallel interior solves. Slack state restarts each
		// round: boundary and certification moves since the last region
		// are not in any shard's drift accumulator, so stale bounds could
		// wrongly skip; a reset is cheap and safe.
		for i := range f.slack {
			f.slack[i] = -1
		}
		expire, timed := e.deadline.ExpireTime()
		for s := range e.shardSlv {
			e.shardSlv[s] = shardSolve{
				saveRes:  resizeInt32(e.shardSlv[s].saveRes, g.maxUses),
				saveLoad: resizeFloat(e.shardSlv[s].saveLoad, g.maxUses),
			}
		}
		e.shardT = shardSweepTask{
			e:      e,
			plan:   plan,
			lambda: cfg.Lambda,
			budget: int64(maxIter - moves),
			expire: expire,
			timed:  timed,
		}
		e.pool.Run(shards, &e.shardT)
		overrun := false
		for s := range e.shardSlv {
			ss := &e.shardSlv[s]
			moves += int(ss.moves)
			e.tally.moves += ss.moves
			e.tally.hits += ss.hits
			e.tally.misses += ss.misses
			overrun = overrun || ss.overrun
		}
		if overrun || moves >= maxIter {
			e.invalidateAll()
			e.recordCGBA(moves)
			return result(false), ErrNoConverge
		}

		// Phase 2 — serial boundary reconciliation: full-width sweeps over
		// the boundary players against the shards' frozen congestion sums,
		// until a quiet pass.
		for {
			moved := false
			for idx, pi := range plan.boundary {
				i := int(pi)
				if idx&fastSweepCheckMask == 0 && e.deadline.Expired() {
					e.invalidateAll()
					e.recordCGBA(moves)
					return result(true), nil
				}
				cur, br, brCost := e.sweepScore(i, true)
				e.tally.misses++
				if (1-cfg.Lambda)*cur > brCost+relEps*(cur+1) {
					e.fastMove(i, int(br))
					moves++
					moved = true
					if moves >= maxIter {
						e.invalidateAll()
						e.recordCGBA(moves)
						return result(false), ErrNoConverge
					}
				}
			}
			if !moved {
				break
			}
		}

		// Phase 3 — serial global certification with the exact path's
		// refresh arithmetic. A quiet sweep proves every player (interior
		// and boundary) is within λ of its true best response — a
		// certified λ-equilibrium of the global game — and leaves the
		// caches fully consistent. Any move sends the solve into another
		// round: the sharded decomposition converges because every phase
		// only ever applies λ-improving moves to the one global potential.
		e.invalidateAll()
		moved := false
		for i := 0; i < n; i++ {
			if i&fastSweepCheckMask == 0 && e.deadline.Expired() {
				e.invalidateAll()
				e.recordCGBA(moves)
				return result(true), nil
			}
			if s, _, ok := e.dissatisfied(i, cfg.Lambda); ok {
				e.move(i, s)
				moves++
				moved = true
				if moves >= maxIter {
					e.invalidateAll()
					e.recordCGBA(moves)
					return result(false), ErrNoConverge
				}
			}
		}
		if !moved {
			e.recordCGBA(moves)
			return result(false), nil
		}
	}
}
