package tenant

import (
	"sort"

	"repro/internal/core"
	"repro/internal/executive"
)

// This file is the cross-job dispatch policy. Two decisions live here:
//
//   - home assignment (rebalanceLocked): workers are divided among the
//     active jobs in proportion to their weights, largest remainders
//     settled by priority then submit order. A worker serves its home job
//     exclusively while anything there is dispatchable, so a job's
//     critical path is driven by a stable worker set and its makespan
//     stays close to running alone.
//   - backfill order (backfillPlan): a worker whose home job is in
//     rundown offers its idle capacity to the other jobs — higher
//     priority first, then larger deficit-round-robin credit, submit
//     order as the final tie-break. Backfill draws down the serving
//     job's credit by the task's granule count; credit replenishes by
//     weight when every candidate is exhausted.

// homeCache is a worker-local snapshot of the home assignment, refreshed
// only when the pool's epoch changes, so the hot path (home job has work)
// costs one atomic load instead of a pool-lock acquisition per task. The
// snapshot can be stale (or nil) around a job's activation or retirement;
// sweep re-checks the live assignment before counting a dispatch as
// backfill. plan is the worker's backfill-order scratch, reused by every
// backfillPlan call so a rundown sweep allocates nothing.
type homeCache struct {
	epoch uint64
	home  *Job
	valid bool
	plan  []*Job
}

// home returns worker w's current home job (nil when no job is active).
func (p *Pool) home(w int, c *homeCache) *Job {
	e := p.epoch.Load()
	if c.valid && c.epoch == e {
		return c.home
	}
	p.mu.Lock()
	c.home = p.homes[w]
	c.epoch = p.epoch.Load()
	c.valid = true
	p.mu.Unlock()
	return c.home
}

// sweep makes one pass over the dispatch policy for worker w: home job
// first, then the backfill candidates in policy order. ok=false means
// nothing was dispatchable anywhere at sweep time. The returned driver
// is the one the task was taken from — the worker completes to it, even
// if a retry swaps the job's current driver in the meantime.
//
// A candidate's dispatch is backfill only if the candidate is not w's
// home job, re-checked under p.mu: the cached home the plan was built
// from may be nil or stale (a single-job pool's worker that cached "no
// home" before the job activated would otherwise count the job's own
// work as backfill and draw down its credit).
func (p *Pool) sweep(w int, c *homeCache) (j *Job, m executive.PoolDriver, t core.Task, backfill, ok bool) {
	home := p.home(w, c)
	if home != nil {
		hm := home.driver()
		if t, ok := hm.TryNext(w); ok {
			p.gen.Add(1)
			return home, hm, t, false, true
		}
		p.checkFinished(home)
	}
	c.plan = p.backfillPlan(home, c.plan[:0])
	for _, cand := range c.plan {
		cm := cand.driver()
		if t, ok := cm.TryNext(w); ok {
			p.mu.Lock()
			backfill = cand != p.homes[w]
			if backfill {
				cand.deficit -= int64(t.Run.Len())
			}
			p.mu.Unlock()
			p.gen.Add(1)
			return cand, cm, t, backfill, true
		}
		p.checkFinished(cand)
	}
	return nil, nil, core.Task{}, false, false
}

// backfillPlan appends the backfill candidates for a worker homed on home
// to cands, ordered by the dispatch policy, and returns it. Replenishes
// every active job's deficit-round-robin credit when the candidates are
// collectively exhausted. The order is built by insertion into the
// caller's reused slice — the active set is small — so the sweep
// allocates and sorts nothing under p.mu.
func (p *Pool) backfillPlan(home *Job, cands []*Job) []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	credit := false
	for _, j := range p.active {
		if j == home {
			continue
		}
		cands = append(cands, j)
		if j.deficit > 0 {
			credit = true
		}
	}
	if len(cands) == 0 {
		return cands
	}
	if !credit {
		for _, j := range p.active {
			j.deficit += int64(j.cfg.Weight) * drrQuantum
		}
	}
	for i := 1; i < len(cands); i++ {
		for k := i; k > 0 && backfillBefore(cands[k], cands[k-1]); k-- {
			cands[k], cands[k-1] = cands[k-1], cands[k]
		}
	}
	return cands
}

// backfillBefore is the backfill order: higher priority first, then more
// deficit-round-robin credit, then submit order. Caller holds p.mu (it
// reads deficits).
func backfillBefore(a, b *Job) bool {
	if a.cfg.Priority != b.cfg.Priority {
		return a.cfg.Priority > b.cfg.Priority
	}
	if a.deficit != b.deficit {
		return a.deficit > b.deficit
	}
	return a.idx < b.idx
}

// rebalanceLocked reassigns worker homes over the active jobs by weighted
// largest-remainder: every job gets floor(W * weight / totalWeight) home
// workers, leftovers go to the highest (priority, remainder, submit
// order). With more jobs than workers the overflow jobs hold no home
// workers and progress through backfill only. Caller holds p.mu.
func (p *Pool) rebalanceLocked() {
	defer p.epoch.Add(1)
	n := len(p.active)
	if n == 0 {
		for i := range p.homes {
			p.homes[i] = nil
		}
		return
	}
	total := 0
	for _, j := range p.active {
		total += j.cfg.Weight
	}
	w := p.cfg.Workers
	type share struct {
		j    *Job
		n    int
		rem  int
		prio int
	}
	shares := make([]share, n)
	assigned := 0
	for i, j := range p.active {
		exact := w * j.cfg.Weight
		shares[i] = share{j: j, n: exact / total, rem: exact % total, prio: j.cfg.Priority}
		assigned += shares[i].n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := shares[order[a]], shares[order[b]]
		if sa.prio != sb.prio {
			return sa.prio > sb.prio
		}
		return sa.rem > sb.rem
	})
	for i := 0; assigned < w; i = (i + 1) % n {
		shares[order[i]].n++
		assigned++
	}
	slot := 0
	for _, s := range shares {
		for k := 0; k < s.n; k++ {
			p.homes[slot] = s.j
			slot++
		}
	}
}
