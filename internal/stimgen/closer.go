// The adaptive work-sharing closure engine behind CloseCoverage.
//
// Three ideas carry the speedup, all aimed at not re-doing work:
//
//   - Cross-hole witness reuse: holes are processed in fixed-size waves; at
//     each wave boundary every witness the wave produced is replayed (one
//     64-lane batch-sim call) against all holes still waiting, and covered
//     holes come back MethodShared without ever issuing a reach query.
//
//   - Adaptive per-hole depth with ladder resume: a hole's first ladder is
//     capped by its cone's state-bit count, not the global MaxDepth; a hole
//     bounded-unreachable at its cap is deferred, its cap doubles next
//     iteration, and mc.Session.ReachFrom resumes past the proven depth so
//     the retries together cost one full ladder, not one per iteration.
//
//   - k-induction dead-code promotion: a bounded-unreachable hole that fuzz
//     also missed is routed through mc.Session.ProveUnreachable; a ReachDead
//     verdict removes it from the hole universe for good (and, with
//     ClosureOptions.DeadFile, for every future run on the same design).
//
//   - Witness compaction under a cycle budget: a witness the budget cannot
//     afford is parked (the hole is never re-solved), and a final repack
//     evicts suite witnesses whose every covered fact is covered elsewhere —
//     typically shallow early-iteration witnesses subsumed by deeper ones —
//     then readmits parked witnesses into the freed cycles.
//
// Determinism: wave boundaries are fixed by shareWave (not the worker
// count), verdicts and canonical witnesses are properties of the formula,
// fuzz seeds derive from the hole's index, and the covered/proven maps are
// only written between waves — so -j1 and -jN remain byte-identical.
package stimgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"

	"goldmine/internal/coverage"
	"goldmine/internal/holes"
	"goldmine/internal/jsonl"
	"goldmine/internal/mc"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
	"goldmine/internal/sim"
	"goldmine/internal/simc"
	"goldmine/internal/telemetry"
)

// shareWave is the wave width of the sharing engine: how many ranked holes
// are attempted between witness-replay barriers. A constant (never the worker
// count) so the barrier schedule — and with it every shared-coverage decision
// — is identical under any -j.
const shareWave = 16

// closureWorkers is the per-run worker pool: one persistent mc.Session, one
// batch machine and one fuzz random source per worker, living across waves
// and iterations so unrolled frames, learned clauses, and memoized
// obligation gadgets are paid for once.
type closureWorkers struct {
	sessions []*mc.Session
	bms      []*simc.BatchMachine
	rngs     []*laneSource
}

// newClosureWorkers builds the pool on bp, a program compiled with
// simc.BatchOptions.Points (hole hits read its point words).
func newClosureWorkers(bp *simc.BatchProgram, nholes int, opts DirectedOptions) *closureWorkers {
	d := bp.Design()
	n := sched.Workers(opts.Workers, nholes)
	cw := &closureWorkers{
		sessions: make([]*mc.Session, n),
		bms:      make([]*simc.BatchMachine, n),
		rngs:     make([]*laneSource, n),
	}
	for w := 0; w < n; w++ {
		checker := mc.NewWithOptions(d, opts.MC)
		checker.SetTelemetry(opts.Telemetry)
		cw.sessions[w] = checker.NewSession()
		cw.bms[w] = simc.NewBatchMachine(bp)
		cw.rngs[w] = newLaneSource(0) // reseeded per lane
	}
	return cw
}

// sumQueries folds the per-worker session counters into the result. The
// totals are worker-count independent: each hole's solve count depends only
// on its obligation, resume depth, and cap.
func (cw *closureWorkers) sumQueries(res *ClosureResult) {
	for _, s := range cw.sessions {
		res.ReachCalls += s.ReachCalls
		res.ReachSolves += s.ReachSolves
	}
}

// indMaxK bounds the closure engine's induction ladders. Dead code is
// shallowly inductive — every bundled design's dead hole proves at k <= 8 —
// and each failed step is a wasted solve, so the engine stops there rather
// than walking to the checker's full MaxInduction on holes that are merely
// bounded-unreachable. ProveUnreachable's fromK resume makes the bound a
// per-hole total, not per-attempt.
const indMaxK = 8

// capFor is a hole's initial adaptive ladder cap: shallow for holes whose
// cone is mostly combinational, two frames deeper per sequential state bit
// (state bits are what push witnesses deep), plus a margin for sequence
// obligations that must reach an unobserved FSM state first. The cap is
// clamped to half the configured MaxDepth — one deferral doubling reaches
// full depth, and starting shallow is what lets k-induction retire dead
// holes before the full ladder is paid (a depth-10 base already covers every
// k <= indMaxK step). Ladder resume makes the clamp free for deep holes:
// their rung total telescopes to the same MaxDepth.
func capFor(h *holes.Hole, maxDepth int) int {
	c := 4 + 2*h.ConeStateBits
	if h.SourceUnreached {
		c += 4
	}
	if half := maxDepth / 2; c > half && half >= 4 {
		c = half
	}
	if c > maxDepth {
		c = maxDepth
	}
	return c
}

// runWaves attempts the ranked holes in shareWave-sized waves. caps[i] is
// hole i's ladder cap; proven maps hole keys to depths already proven
// unreachable and tried to induction steps already observed Sat (both
// read-only here — the caller owns updates between calls). At each wave
// boundary the wave's witnesses are replayed against all holes still
// waiting; covered ones come back MethodShared without a query.
func (cw *closureWorkers) runWaves(ctx context.Context, hs []*holes.Hole, caps []int, proven, tried map[string]int, opts DirectedOptions) []*HoleAttempt {
	out := make([]*HoleAttempt, len(hs))
	coveredBy := make([]int, len(hs)) // witness-owner index, -1 = not covered
	coveredAt := make([]int, len(hs)) // hit cycle in the owner's witness
	for i := range coveredBy {
		coveredBy[i] = -1
	}
	for base := 0; base < len(hs); base += shareWave {
		end := base + shareWave
		if end > len(hs) {
			end = len(hs)
		}
		var wsp *telemetry.Span
		wctx := ctx
		if opts.Telemetry != nil {
			wctx, wsp = opts.Telemetry.StartSpan(ctx, "directed.wave",
				telemetry.Int("base", int64(base)),
				telemetry.Int("size", int64(end-base)))
		}
		// One task per hole, each to the next free worker: a hard hole
		// occupies one worker while the others drain the rest of the wave.
		tasks := make([]sched.Task, 0, end-base)
		for i := base; i < end; i++ {
			i := i
			tasks = append(tasks, sched.Task{ID: i, Run: func(tctx context.Context, w int) {
				if coveredBy[i] >= 0 {
					out[i] = &HoleAttempt{
						Hole: hs[i], Method: MethodShared,
						Via: hs[coveredBy[i]].Key(), Depth: coveredAt[i] + 1,
					}
					return
				}
				out[i] = attemptAdaptive(tctx, cw.sessions[w], cw.bms[w], cw.rngs[w],
					hs[i], i, caps[i], proven[hs[i].Key()], tried[hs[i].Key()], opts)
			}})
		}
		sched.RunTasks(wctx, len(cw.sessions), tasks, nil)
		// Cancellation can abandon tasks before they touch their slots.
		for i := base; i < end; i++ {
			if out[i] == nil {
				out[i] = &HoleAttempt{Hole: hs[i], Method: MethodOpen, Err: ctx.Err()}
			}
		}
		// Barrier: replay this wave's witnesses against every hole still
		// waiting. Lane order is index order, and the lowest hitting lane
		// wins, so coverage attribution is deterministic.
		var lanes []sim.Stimulus
		var owners []int
		for i := base; i < end; i++ {
			if out[i].Stim != nil {
				lanes = append(lanes, out[i].Stim)
				owners = append(owners, i)
			}
		}
		shared := 0
		if len(lanes) > 0 && end < len(hs) {
			// Witness replay is an optimization: on a sim fault the later
			// holes simply issue their own queries.
			if bt, err := cw.runPacked(lanes); err == nil {
				for j := end; j < len(hs); j++ {
					if coveredBy[j] >= 0 {
						continue
					}
					if l, hit := lowestLaneHit(hs[j], bt); l >= 0 {
						coveredBy[j], coveredAt[j] = owners[l], hit
						shared++
					}
				}
			}
		}
		wsp.End(
			telemetry.Int("witnesses", int64(len(lanes))),
			telemetry.Int("newly_covered", int64(shared)),
		)
		if ctx.Err() != nil {
			// Mark the unattempted remainder open instead of spinning
			// through dead waves.
			for i := end; i < len(hs); i++ {
				if out[i] == nil {
					out[i] = &HoleAttempt{Hole: hs[i], Method: MethodOpen, Err: ctx.Err()}
				}
			}
			break
		}
	}
	return out
}

// runPacked packs stimuli into lanes and runs them on worker 0's machine:
// the trace is valid until that machine's next run. More than simc.MaxLanes
// stimuli is an error.
func (cw *closureWorkers) runPacked(lanes []sim.Stimulus) (*simc.BatchTrace, error) {
	bm := cw.bms[0]
	ps, err := bm.Program().Pack(lanes)
	if err != nil {
		return nil, err
	}
	return bm.RunPacked(ps)
}

// lowestLaneHit returns the lowest lane of bt that exercises h at any cycle
// and that lane's first hit cycle, or -1, -1: the winner of a lane-by-lane
// Hit scan, found on the packed trace. Once a lane hits, only lanes below it
// can still win.
func lowestLaneHit(h *holes.Hole, bt *simc.BatchTrace) (lane, hit int) {
	lane, hit = -1, -1
	for t, among := 0, ^uint64(0); t < bt.Cycles() && among&bt.Live(t) != 0; t++ {
		if m := h.HitMask(bt, t, among); m != 0 {
			lane, hit = bits.TrailingZeros64(m), t
			among = m&-m - 1
		}
	}
	return lane, hit
}

// attemptAdaptive runs the capped, resumable SAT→fuzz→induction ladder for
// one hole. rank is the hole's index in the ranked list (the fuzz seed
// derives from it, not from the worker); fromDepth is the depth already
// proven unreachable in earlier iterations, fromK the induction steps
// already observed Sat — both ladders resume, never repeat.
func attemptAdaptive(ctx context.Context, sess *mc.Session, bm *simc.BatchMachine, rng *laneSource, h *holes.Hole, rank, cap, fromDepth, fromK int, opts DirectedOptions) *HoleAttempt {
	at := &HoleAttempt{Hole: h}
	var sp *telemetry.Span
	if opts.Telemetry != nil {
		ctx, sp = opts.Telemetry.StartSpan(ctx, "directed.hole",
			telemetry.String("hole", h.Key()),
			telemetry.Int("rank", int64(rank)),
			telemetry.Int("cap", int64(cap)))
	}
	defer func() {
		sp.End(telemetry.String("method", at.Method), telemetry.Int("depth", int64(at.Depth)))
	}()

	ob := obligationFor(h)

	// Structural dead-code probe, first visit only: most dead targets are
	// transition-relation violations — inductive at k=1 from a base that
	// just covers the obligation window. Catching one here costs two solves
	// total and skips the whole ladder; a live hole pays one wasted step
	// solve once (the base rung is the ladder's own first rung, resumed).
	probe := 1
	for _, p := range ob.Props {
		if p.Offset+1 > probe {
			probe = p.Offset + 1
		}
	}
	if fromDepth == 0 && fromK == 0 && cap > probe {
		if pres, perr := sess.ReachFrom(ctx, ob, 0, probe, h.Inputs); perr == nil {
			switch pres.Status {
			case mc.ReachFound:
				at.Method, at.Depth, at.Stim = MethodSAT, pres.Depth, pres.Stim
				return at
			case mc.ReachUnreachable:
				dres, derr := sess.ProveUnreachable(ctx, ob, probe, 0, 1)
				if derr == nil && dres.Status == mc.ReachDead {
					at.Method, at.K, at.Depth, at.ProvenDepth = MethodDead, dres.K, probe, probe
					return at
				}
				fromDepth = probe
				if derr == nil && dres.Status == mc.ReachUnreachable {
					fromK = 1 // the k=1 step was observed Sat: never re-solve it
				}
			}
		}
	}

	res, err := sess.ReachFrom(ctx, ob, fromDepth, cap, h.Inputs)
	unreachable := false
	switch {
	case err != nil:
		at.Err = err
	case res.Status == mc.ReachFound:
		at.Method, at.Depth, at.Stim = MethodSAT, res.Depth, res.Stim
		return at
	case res.Status == mc.ReachUnreachable:
		unreachable = true
		at.ProvenDepth = res.Depth
	case res.Status == mc.ReachUnknown:
		// Budget died mid-ladder, but the completed rungs are proven: the
		// retry resumes past them.
		if res.Depth > fromDepth {
			at.ProvenDepth = res.Depth
		}
	}

	// Fallback: focused batch fuzzing. The cap may simply be too small (fuzz
	// lanes run past it), so bounded-UNSAT still gets a fuzz shot. The lanes
	// are drawn straight into packed rows and hits are found on the packed
	// trace, cycle-major: the first cycle any lane hits wins, the lowest such
	// lane breaks the tie, and only that lane is drawn again as a stimulus.
	fd := newFocusDraw(bm.Program().Design(), h.Inputs)
	seed := opts.Seed + int64(rank)*1000003
	ps, err := fd.packed(bm.Program(), rng, fuzzLanes, fuzzCycles, seed, resetCycles)
	var bt *simc.BatchTrace
	if err == nil {
		bt, err = bm.RunPacked(ps)
	}
	if err != nil {
		if at.Err == nil {
			at.Err = err
		}
		at.Method = MethodError
		return at
	}
	for t := 0; t < bt.Cycles(); t++ {
		if m := h.HitMask(bt, t, ^uint64(0)); m != 0 {
			lane := bits.TrailingZeros64(m)
			at.Method, at.Depth = MethodFuzz, t+1
			at.Stim = fd.lane(rng, seed+int64(lane), t+1, resetCycles)
			at.SATUnreachable = unreachable
			return at
		}
	}
	switch {
	case at.Err != nil:
		at.Method = MethodError
	case unreachable:
		// Bounded-unreachable and fuzz missed: try to promote the bounded
		// claim to dead code. The induction k is capped by the proven base
		// depth, so even a shallow cap can retire targets whose absence is
		// inductive (most dead code is, at k=1) — that is the payoff of
		// starting shallow: a dead hole never pays the full ladder. On
		// failure K records the steps tried so the next attempt resumes.
		dres, derr := sess.ProveUnreachable(ctx, ob, at.ProvenDepth, fromK, indMaxK)
		switch {
		case derr == nil && dres.Status == mc.ReachDead:
			at.Method, at.K, at.Depth = MethodDead, dres.K, at.ProvenDepth
		case cap < opts.MaxDepth:
			at.Method, at.Depth = MethodDeferred, at.ProvenDepth
		default:
			at.Method, at.Depth = MethodUnreachable, at.ProvenDepth
		}
		if derr == nil && dres.Status == mc.ReachUnreachable && dres.K > fromK {
			at.K = dres.K
		}
	default:
		at.Method = MethodOpen
	}
	return at
}

// closeAdaptive is the adaptive closure loop: extract holes, skip the dead
// and the terminally fruitless, attempt the rest in shared waves at their
// adaptive caps, fold witnesses into the suite, grow the caps of deferred
// holes, and iterate while anything moved.
func closeAdaptive(ctx context.Context, d *rtl.Design, col *coverage.Collector, res *ClosureResult, opts ClosureOptions) error {
	fp := sched.DesignFingerprint(d)
	dead := map[string]DeadHole{}
	var deadLog *jsonl.Log
	if opts.DeadFile != "" {
		dl, err := jsonl.Open(opts.DeadFile, deadLine(fp, dead))
		if err != nil {
			return fmt.Errorf("dead corpus: %w", err)
		}
		defer dl.Close() // error paths; appendDeadCorpus checks the last Close
		deadLog = dl
	}

	var cw *closureWorkers
	seedLen := len(res.Suite)     // everything before this index is seed, never evicted
	proven := map[string]int{}    // hole key -> depth proven unreachable
	tried := map[string]int{}     // hole key -> induction steps observed Sat
	caps := map[string]int{}      // hole key -> current adaptive cap
	terminal := map[string]bool{} // unreachable at MaxDepth (not dead) or errored
	pending := map[string]bool{}  // witness in hand but over budget; never re-solved
	var pendOrder []*HoleAttempt
	var newDead []DeadHole

	for iter := 0; iter < opts.MaxIterations; iter++ {
		all := holes.FromCollector(col)
		var hs []*holes.Hole
		excluded := 0
		for _, h := range all {
			k := h.Key()
			if _, isDead := dead[k]; isDead {
				excluded++
				continue
			}
			if !terminal[k] && !pending[k] {
				hs = append(hs, h)
			}
		}
		if iter == 0 {
			res.DeadLoaded = excluded
		}
		if len(hs) == 0 {
			res.Converged = len(pendOrder) == 0
			break
		}
		if cw == nil {
			bp, err := col.Program() // one compile serves collection and the workers
			if err != nil {
				return err
			}
			cw = newClosureWorkers(bp, len(hs), opts.DirectedOptions)
			defer cw.sumQueries(res)
		}
		capsArr := make([]int, len(hs))
		for i, h := range hs {
			k := h.Key()
			if c, ok := caps[k]; ok {
				capsArr[i] = c
			} else {
				capsArr[i] = capFor(h, opts.MaxDepth)
				caps[k] = capsArr[i]
			}
		}

		var itSp *telemetry.Span
		ictx := ctx
		if opts.Telemetry != nil {
			ictx, itSp = opts.Telemetry.StartSpan(ctx, "directed.iteration",
				telemetry.Int("iter", int64(iter)),
				telemetry.Int("holes", int64(len(hs))))
		}
		attempts := cw.runWaves(ictx, hs, capsArr, proven, tried, opts.DirectedOptions)

		st := IterationStats{Holes: len(hs)}
		progressed := false
		var fresh []sim.Stimulus
		for _, at := range attempts {
			res.Attempts = append(res.Attempts, at)
			res.Methods[at.Method]++
			k := at.Hole.Key()
			if at.ProvenDepth > proven[k] {
				proven[k] = at.ProvenDepth
				progressed = true // deeper rungs proved; a retry starts past them
			}
			switch at.Method {
			case MethodSAT, MethodFuzz:
				if opts.TotalCycles > 0 && res.CyclesUsed+len(at.Stim) > opts.TotalCycles {
					// Over budget: park the witness instead of dropping it.
					// The hole is never re-solved, and the final compaction
					// pass readmits the stimulus if eviction frees room.
					if !pending[k] {
						pending[k] = true
						pendOrder = append(pendOrder, at)
					}
					continue
				}
				fresh = append(fresh, at.Stim)
				res.CyclesUsed += len(at.Stim)
				st.Directed++
			case MethodShared:
				st.Shared++
			case MethodDead:
				st.Dead++
				dh := DeadHole{Design: fp, Key: k, Depth: at.ProvenDepth, K: at.K}
				dead[k] = dh
				newDead = append(newDead, dh)
				res.Dead = append(res.Dead, dh)
				progressed = true // the universe shrank
			case MethodDeferred:
				st.Deferred++
				if at.K > tried[k] {
					tried[k] = at.K // failed induction steps: never re-solve them
				}
				if c := caps[k]; c < opts.MaxDepth {
					nc := c * 2
					if nc > opts.MaxDepth {
						nc = opts.MaxDepth
					}
					caps[k] = nc
					progressed = true // the ladder advanced; re-evaluate next pass
				}
			case MethodUnreachable, MethodError:
				terminal[k] = true
			}
		}
		if len(fresh) > 0 {
			res.Suite = append(res.Suite, fresh...)
			before := len(holes.FromCollector(col))
			if err := col.RunSuiteCompiled(fresh); err != nil {
				itSp.End(telemetry.String("error", err.Error()))
				return err
			}
			st.Closed = before - len(holes.FromCollector(col))
			progressed = true
		}
		res.Iterations = append(res.Iterations, st)
		itSp.End(
			telemetry.Int("appended", int64(st.Directed)),
			telemetry.Int("closed", int64(st.Closed)),
			telemetry.Int("shared", int64(st.Shared)),
			telemetry.Int("dead", int64(st.Dead)),
		)
		if !progressed || ctx.Err() != nil {
			break
		}
	}

	if cw != nil && len(pendOrder) > 0 {
		if err := cw.compactSuite(ctx, col, res, seedLen, pendOrder, opts); err != nil {
			return err
		}
	}

	if deadLog != nil && len(newDead) > 0 {
		sort.Slice(newDead, func(i, j int) bool { return newDead[i].Key < newDead[j].Key })
		if err := appendDeadCorpus(deadLog, newDead); err != nil {
			return err
		}
	}
	sort.Slice(res.Dead, func(i, j int) bool { return res.Dead[i].Key < res.Dead[j].Key })
	return nil
}

// compactSuite is the budget repair pass: when the cycle gate parked SAT or
// fuzz witnesses, re-pack the suite so the cycles buy maximum coverage. One
// batch replay yields each stimulus's covered-fact signature (the hole keys
// it hits — exactly the predicate the wave barrier shares on); directed
// witnesses whose every fact is covered elsewhere in the suite are evicted,
// and parked witnesses that fit the freed cycles and still add coverage are
// readmitted, to fixpoint. Seed stimuli are never evicted. The pass issues no
// reach queries, and the scan orders (suite order, park order) make it
// deterministic under any -j. The adaptive ladder is what makes it matter:
// shallow iterations admit short witnesses that deeper ones subsume, and
// without eviction those stale cycles crowd out the deep witnesses a
// fixed-depth ladder would have afforded.
func (cw *closureWorkers) compactSuite(ctx context.Context, col *coverage.Collector, res *ClosureResult, seedLen int, pendOrder []*HoleAttempt, opts ClosureOptions) error {
	if opts.TotalCycles <= 0 {
		return nil
	}
	var sp *telemetry.Span
	if opts.Telemetry != nil {
		_, sp = opts.Telemetry.StartSpan(ctx, "directed.compact",
			telemetry.Int("parked", int64(len(pendOrder))))
	}
	d := cw.bms[0].Program().Design()
	universe := holes.FromCollector(coverage.New(d))
	lanes := append([]sim.Stimulus{}, res.Suite...)
	for _, at := range pendOrder {
		lanes = append(lanes, at.Stim)
	}
	bt, err := cw.runPacked(lanes)
	if err != nil {
		// Compaction is an optimization: on a sim fault keep the suite as is.
		sp.End(telemetry.String("error", err.Error()))
		return nil
	}
	sigs := make([]map[string]bool, len(lanes))
	for l := range sigs {
		sigs[l] = map[string]bool{}
	}
	for _, h := range universe {
		var hit uint64
		for t, among := 0, ^uint64(0); t < bt.Cycles() && among&bt.Live(t) != 0; t++ {
			m := h.HitMask(bt, t, among)
			hit |= m
			among &^= m
		}
		for ; hit != 0; hit &= hit - 1 {
			sigs[bits.TrailingZeros64(hit)][h.Key()] = true
		}
	}

	covers := map[string]int{} // fact -> kept stimuli covering it
	for l := range res.Suite {
		for k := range sigs[l] {
			covers[k]++
		}
	}
	kept := make([]bool, len(res.Suite))
	for i := range kept {
		kept[i] = true
	}
	admitted := make([]bool, len(pendOrder))
	free := opts.TotalCycles - res.CyclesUsed
	for changed := true; changed; {
		changed = false
		for i := seedLen; i < len(res.Suite); i++ {
			if !kept[i] {
				continue
			}
			unique := false
			for k := range sigs[i] {
				if covers[k] == 1 {
					unique = true
					break
				}
			}
			if unique {
				continue
			}
			kept[i] = false
			for k := range sigs[i] {
				covers[k]--
			}
			free += len(res.Suite[i])
			res.Evicted++
			changed = true
		}
		for j, at := range pendOrder {
			if admitted[j] || len(at.Stim) > free {
				continue
			}
			sig := sigs[len(res.Suite)+j]
			adds := false
			for k := range sig {
				if covers[k] == 0 {
					adds = true
					break
				}
			}
			if !adds {
				continue // its hole got covered meanwhile; don't spend cycles
			}
			admitted[j] = true
			for k := range sig {
				covers[k]++
			}
			free -= len(at.Stim)
			res.Readmitted++
			changed = true
		}
	}
	if res.Evicted == 0 && res.Readmitted == 0 {
		sp.End(telemetry.Int("evicted", 0), telemetry.Int("readmitted", 0))
		return nil
	}

	suite := append([]sim.Stimulus{}, res.Suite[:seedLen]...)
	for i := seedLen; i < len(res.Suite); i++ {
		if kept[i] {
			suite = append(suite, res.Suite[i])
		}
	}
	var fresh []sim.Stimulus
	for j, at := range pendOrder {
		if admitted[j] {
			fresh = append(fresh, at.Stim)
		}
	}
	res.Suite = append(suite, fresh...)
	res.CyclesUsed = opts.TotalCycles - free
	sp.End(
		telemetry.Int("evicted", int64(res.Evicted)),
		telemetry.Int("readmitted", int64(res.Readmitted)),
		telemetry.Int("free_cycles", int64(free)),
	)
	if len(fresh) > 0 {
		// The evicted witnesses' facts stay observed in the collector (they
		// are covered elsewhere by construction); only the readmitted ones
		// carry new coverage.
		return col.RunSuiteCompiled(fresh)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dead-hole corpus
// ---------------------------------------------------------------------------

// DeadHole is one proven-dead coverage hole: k-induction (K) on top of a
// bounded-unreachable base case (Depth frames from reset) showed no stimulus
// of any length can exercise it. Persisted as JSONL in per-design
// fingerprint namespaces so later runs skip the proof — and the query.
type DeadHole struct {
	Design string `json:"design"`
	Key    string `json:"key"`
	Depth  int    `json:"depth"`
	K      int    `json:"k"`
}

// LoadDeadHoles reads a dead-hole journal and returns the entries recorded
// for design, keyed by hole key. Callers use it to filter proven-dead points
// out of hole listings without re-running closure. The journal follows the
// jsonl contract: a torn tail is discarded, and a bad line followed by
// anything is corruption. The entries are re-provable, so deleting a corrupt
// journal is the repair.
func LoadDeadHoles(path string, d *rtl.Design) (map[string]DeadHole, error) {
	dead := map[string]DeadHole{}
	if _, err := jsonl.Replay(path, deadLine(sched.DesignFingerprint(d), dead)); err != nil {
		return nil, fmt.Errorf("dead corpus: %w", err)
	}
	return dead, nil
}

// deadLine returns the replay callback that parses one journal line and
// keeps it in out when it belongs to design's namespace.
func deadLine(design string, out map[string]DeadHole) func([]byte) error {
	return func(line []byte) error {
		var dh DeadHole
		if err := json.Unmarshal(line, &dh); err != nil {
			return err
		}
		if dh.Design == design && dh.Key != "" {
			out[dh.Key] = dh
		}
		return nil
	}
}

// appendDeadCorpus appends newly-proven entries as one write and closes the
// journal.
func appendDeadCorpus(dl *jsonl.Log, entries []DeadHole) error {
	var buf []byte
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := dl.Append(buf, len(entries)); err != nil {
		return fmt.Errorf("dead corpus: %w", err)
	}
	return dl.Close()
}
