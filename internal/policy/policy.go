// Package policy implements Kodan's selection logic (Section 3.4): the
// per-deployment policy that fixes the frame tile count and, for every
// context, one of four actions — discard, downlink without processing,
// run the context-specialized model, or run the generic reference model.
//
// The one-time transformation step sweeps tilings and per-context actions
// against an analytic model of the deployment — frame deadline, measured
// per-tile execution times, measured per-context confusion rates, and the
// simulated downlink capacity — and picks the combination maximizing the
// data value density of the saturated downlink. The same analytic model
// also evaluates the bent-pipe and direct-deploy baselines, so every DVD
// number in the reproduction comes from one accounting.
package policy

import (
	"context"
	"fmt"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/parallel"
	"kodan/internal/tiling"
	"kodan/internal/value"
)

// Action is a per-context runtime decision.
type Action int

// Actions, in the order the paper describes them (Figure 7's selection
// logic: Discard / specialized model / Downlink).
const (
	// Discard drops the tile without processing (mostly low-value context).
	Discard Action = iota
	// Downlink transmits the tile unprocessed (mostly high-value context).
	Downlink
	// Specialized runs the single-context specialized model and transmits
	// the predicted high-value pixels.
	Specialized
	// Merged runs the multi-context (dominant-geography group) specialized
	// model — Section 3.3's "specialized across multiple contexts" — and
	// transmits the predicted high-value pixels.
	Merged
	// Generic runs the reference model and transmits predicted high-value
	// pixels.
	Generic
	numActions
	// Deferred buffers the tile raw on board and downlinks it against
	// later contact windows for ground processing — the hybrid planner's
	// defer-to-ground disposition (internal/planner). It is declared after
	// numActions so the selection-logic optimizer, which sweeps the
	// paper's on-board action set, never considers it; only planner
	// output carries it.
	Deferred
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Discard:
		return "discard"
	case Downlink:
		return "downlink"
	case Specialized:
		return "specialized"
	case Merged:
		return "merged"
	case Generic:
		return "generic"
	case Deferred:
		return "deferred"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// ContextProfile is the transformation step's measured knowledge of one
// context at one tiling.
type ContextProfile struct {
	// TileFrac is the fraction of tiles the context engine assigns here.
	TileFrac float64
	// HighValueFrac is the pixel-weighted high-value fraction.
	HighValueFrac float64
	// Generic, Special, and Merged are the measured validation confusions
	// of the reference, single-context, and multi-context models on this
	// context.
	Generic nn.Confusion
	Special nn.Confusion
	Merged  nn.Confusion
}

// TilingProfile aggregates the per-context profiles of one tiling.
type TilingProfile struct {
	Tiling   tiling.Tiling
	Contexts []ContextProfile
}

// Prevalence returns the tile-weighted high-value fraction.
func (tp TilingProfile) Prevalence() float64 {
	var p float64
	for _, c := range tp.Contexts {
		p += c.TileFrac * c.HighValueFrac
	}
	return p
}

// Env describes the deployment environment the logic is generated for.
type Env struct {
	// App is the application (supplies per-tile latencies).
	App app.Architecture
	// Target is the hardware platform.
	Target hw.Target
	// Deadline is the frame deadline from the orbit and grid.
	Deadline time.Duration
	// CapacityFrac is the downlink capacity per observed frame as a
	// fraction of the frame size (e.g. 0.21 for a lone Landsat satellite).
	CapacityFrac float64
	// FillIdle downlinks raw unprocessed frames when the processed output
	// does not saturate the link (maximizes link utility).
	FillIdle bool
	// UseEngine runs the context engine on every tile (Kodan); baselines
	// that never consult contexts leave it false.
	UseEngine bool
	// MaxDutyCycle optionally caps the compute duty cycle (frame time over
	// deadline) the optimizer may select — the power-aware variant for
	// energy-limited buses where "claiming idle compute time" (Section
	// 3.4) would blow the electrical budget. Zero means uncapped.
	MaxDutyCycle float64
}

// dutyCycle returns the compute duty a frame time implies.
func (e Env) dutyCycle(ft time.Duration) float64 {
	if e.Deadline <= 0 {
		return 0
	}
	d := float64(ft) / float64(e.Deadline)
	if d > 1 {
		d = 1
	}
	return d
}

// admissible reports whether a frame time respects the duty-cycle cap.
func (e Env) admissible(ft time.Duration) bool {
	return e.MaxDutyCycle <= 0 || e.dutyCycle(ft) <= e.MaxDutyCycle+1e-12
}

// Selection is a generated selection logic.
type Selection struct {
	Tiling  tiling.Tiling
	Actions []Action // indexed by context
}

// ElidedFrac returns the tile fraction that skips model execution.
func (s Selection) ElidedFrac(tp TilingProfile) float64 {
	var f float64
	for c, a := range s.Actions {
		if a == Discard || a == Downlink || a == Deferred {
			f += tp.Contexts[c].TileFrac
		}
	}
	return f
}

// DeferredFrac returns the tile fraction the selection routes to the
// deferred/ground disposition.
func (s Selection) DeferredFrac(tp TilingProfile) float64 {
	var f float64
	for c, a := range s.Actions {
		if a == Deferred {
			f += tp.Contexts[c].TileFrac
		}
	}
	return f
}

// Estimate is the analytic evaluation of a selection in an environment.
type Estimate struct {
	// FrameTime is the expected processing time per frame.
	FrameTime time.Duration
	// ProcessedFrac is the fraction of captured frames processed before
	// the next capture (1 when the deadline is met on average).
	ProcessedFrac float64
	// Ledger is the per-observed-frame accounting in frame-size units.
	Ledger value.Ledger
	// DVD is the data value density of the saturated downlink.
	DVD float64
}

// FrameTime returns the expected per-frame processing time of a selection.
func FrameTime(s Selection, tp TilingProfile, env Env) time.Duration {
	tiles := float64(s.Tiling.Tiles())
	var ms float64
	if env.UseEngine {
		ms += tiles * env.Target.ContextEngineMsPerTile()
	}
	for c, a := range s.Actions {
		if a == Specialized || a == Merged || a == Generic {
			ms += tiles * tp.Contexts[c].TileFrac * env.App.PerTileMs[env.Target]
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// Evaluate computes the expected deployment accounting of a selection.
// All bit quantities are fractions of one frame's bits, averaged over
// observed frames; scaling to a real deployment multiplies by frame size
// and frame count, which cancels out of every ratio.
func Evaluate(s Selection, tp TilingProfile, env Env) Estimate {
	return EvaluateAtTime(s, tp, env, FrameTime(s, tp, env))
}

// EvaluateAtTime is Evaluate with the frame processing time overridden —
// used by the Figure 10 sweep, which varies execution time as a free
// parameter to map DVD against compute performance.
func EvaluateAtTime(s Selection, tp TilingProfile, env Env, ft time.Duration) Estimate {
	if len(s.Actions) != len(tp.Contexts) {
		panic("policy: action/context count mismatch")
	}
	p := 1.0
	if ft > env.Deadline && ft > 0 {
		p = float64(env.Deadline) / float64(ft)
	}

	// Build the per-frame chunk mix from processed frames.
	var chunks []value.Chunk
	for c, a := range s.Actions {
		cp := tp.Contexts[c]
		switch a {
		case Discard:
		case Deferred:
			// Deferred tiles leave the frame's immediate downlink budget
			// untouched: their bits ride later contact windows and are
			// accounted by the planner (internal/planner) and the sim's
			// store-and-forward drain, not by the in-frame ledger.
		case Downlink:
			chunks = append(chunks, value.Chunk{
				Bits:      p * cp.TileFrac,
				ValueBits: p * cp.TileFrac * cp.HighValueFrac,
			})
		case Specialized, Merged, Generic:
			conf := cp.Special
			switch a {
			case Merged:
				conf = cp.Merged
			case Generic:
				conf = cp.Generic
			}
			total := float64(conf.Total())
			if total == 0 {
				continue
			}
			kept := conf.PositiveRate()
			tp2 := float64(conf.TP) / total
			chunks = append(chunks, value.Chunk{
				Bits:      p * cp.TileFrac * kept,
				ValueBits: p * cp.TileFrac * tp2,
			})
		}
	}
	// Unprocessed frames are raw; with FillIdle they pad the queue.
	prevalence := tp.Prevalence()
	if env.FillIdle && p < 1 {
		chunks = append(chunks, value.Chunk{
			Bits:      1 - p,
			ValueBits: (1 - p) * prevalence,
		})
	}

	bits, val := value.Drain(chunks, env.CapacityFrac)
	led := value.Ledger{
		CapacityBits:          env.CapacityFrac,
		DownlinkedBits:        bits,
		HighValueBits:         val,
		ObservedBits:          1,
		ObservedHighValueBits: prevalence,
	}
	return Estimate{FrameTime: ft, ProcessedFrac: p, Ledger: led, DVD: led.DVD()}
}

// EvaluateBentPipe returns the bent-pipe baseline: raw frames downlinked
// indiscriminately until the link saturates.
func EvaluateBentPipe(prevalence float64, env Env) Estimate {
	led := value.Ledger{
		CapacityBits:          env.CapacityFrac,
		DownlinkedBits:        env.CapacityFrac,
		HighValueBits:         env.CapacityFrac * prevalence,
		ObservedBits:          1,
		ObservedHighValueBits: prevalence,
	}
	if env.CapacityFrac > 1 {
		// More capacity than data: everything goes down.
		led.DownlinkedBits = 1
		led.HighValueBits = prevalence
	}
	return Estimate{ProcessedFrac: 1, Ledger: led, DVD: led.DVD()}
}

// DirectSelection returns the direct-deployment policy of prior OEC work:
// every tile through the reference model at the given tiling, no context
// engine.
func DirectSelection(tp TilingProfile) Selection {
	actions := make([]Action, len(tp.Contexts))
	for i := range actions {
		actions[i] = Generic
	}
	return Selection{Tiling: tp.Tiling, Actions: actions}
}

// Optimize generates the selection logic: it sweeps every candidate tiling
// and per-context action assignment and returns the selection maximizing
// DVD (ties broken toward higher recovery, then shorter frame time). For
// context counts where the exhaustive sweep would be large (> maxExhaustive
// combinations) it falls back to deterministic hill climbing from the
// all-specialized assignment.
func Optimize(profiles []TilingProfile, env Env) (Selection, Estimate) {
	return optimize(profiles, env, 0)
}

// optimize is Optimize with the tilings searched on up to workers
// goroutines (0 means GOMAXPROCS). Each tiling's sweep runs whole on one
// worker into its own slot, and the slots fold in profile order with
// better — the fold a sequential loop makes, so the result does not
// depend on workers. A single tiling's sweep is never split: better is
// eps-based, so merging chunk-local winners is not provably that fold.
func optimize(profiles []TilingProfile, env Env, workers int) (Selection, Estimate) {
	if len(profiles) == 0 {
		panic("policy: no tiling profiles")
	}
	env.UseEngine = true
	sels := make([]Selection, len(profiles))
	ests := make([]Estimate, len(profiles))
	// The callback never fails and the context is never cancelled, so
	// ForEach returns no error.
	_ = parallel.ForEach(context.TODO(), parallel.Workers(workers), len(profiles), func(_ context.Context, i int) error {
		sels[i], ests[i] = optimizeActions(profiles[i], env)
		return nil
	})
	best := 0
	for i := 1; i < len(profiles); i++ {
		if better(ests[i], ests[best]) {
			best = i
		}
	}
	return sels[best], ests[best]
}

// optActions is the paper's selection-logic action set (Figure 7):
// discard, downlink, or one of the specialized models (single-context or
// multi-context). The generic model remains available to Evaluate for the
// direct-deploy baseline but is dominated by the specialists at equal
// cost, so the optimizer skips it. Two of the actions run no model and
// two run one at the same cost; optModel and optSlot record that split
// for exhaustiveSearch's per-mask tables and change with this list.
var optActions = [...]Action{Discard, Downlink, Specialized, Merged}

// maxExhaustive bounds the exhaustive action sweep (4^8).
const maxExhaustive = 65536

func optimizeActions(tp TilingProfile, env Env) (Selection, Estimate) {
	k := len(tp.Contexts)
	combos := 1
	exhaustive := true
	for i := 0; i < k; i++ {
		combos *= len(optActions)
		if combos > maxExhaustive {
			exhaustive = false
			break
		}
	}
	if exhaustive {
		return exhaustiveSearch(tp, env, combos)
	}
	return hillClimb(tp, env)
}

// exhaustiveSearch sweeps the first combos action assignments in odometer
// order — digit 0 fastest, so code n gives context i the action
// optActions[n/4^i%4] — and returns the fold ev.evaluate plus better
// would make probe by probe: the first admissible assignment no later one
// beats. Odometer order is the tie order.
//
// The odometer carries each probe's model mask and term offsets (see
// maskTables). A probe skips an inadmissible mask before any summing,
// otherwise drains its chunk terms and compares inline against the
// running winner's DVD, recovery and frame time with better's eps and NaN
// semantics. Only the winner's Estimate is built, through ev.evaluate.
func exhaustiveSearch(tp TilingProfile, env Env, combos int) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)
	mt := newMaskTables(ev, k)

	capFrac, prevalence := env.CapacityFrac, ev.prevalence
	recovery := func(val float64) float64 {
		if prevalence == 0 {
			return 0
		}
		return val / prevalence
	}
	const eps = 1e-12
	found := false
	bestCode := 0
	var dvdHi, dvdLo, recHi, recLo float64
	var bestFT time.Duration

	// digit[c] is context c's odometer digit and off[c] its term offset.
	// Every digit starts at Discard, which runs no model.
	digit := make([]int, k)
	off := make([]int, k)
	for c := range off {
		off[c] = mt.offset(c, 0)
	}
	mask := 0
	for code := 0; code < combos; code++ {
		if code > 0 {
			for i := 0; ; i++ {
				d := digit[i] + 1
				if d == len(optActions) {
					d = 0
				}
				digit[i] = d
				off[i] = mt.offset(i, d)
				if optModel[d] {
					mask |= 1 << i
				} else {
					mask &^= 1 << i
				}
				if d != 0 {
					break
				}
			}
		}
		if !mt.ok[mask] {
			continue
		}
		val := 0.0 // no capacity downlinks nothing
		if !(capFrac <= 0) {
			val = mt.drained(mask, off)
		}
		dvd := 0.0
		if capFrac != 0 {
			dvd = val / capFrac
		}
		// better(probe, winner), written with negated comparisons so NaN
		// falls through exactly as it does there.
		if found && !(dvd > dvdHi) {
			if dvd < dvdLo {
				continue
			}
			if rec := recovery(val); !(rec > recHi) && (rec < recLo || mt.ft[mask] >= bestFT) {
				continue
			}
		}
		found = true
		bestCode = code
		dvdHi, dvdLo = dvd+eps, dvd-eps
		rec := recovery(val)
		recHi, recLo = rec+eps, rec-eps
		bestFT = mt.ft[mask]
	}

	// Code 0, all-Discard, is admissible whatever the cap, so it is also
	// the answer of a sweep too short to visit any code.
	best := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	for i := range best.Actions {
		best.Actions[i] = optActions[bestCode%len(optActions)]
		bestCode /= len(optActions)
	}
	return best, ev.evaluate(best.Actions)
}

// optModel[d] reports whether optActions[d] runs a model, and optSlot[d]
// numbers it among the optActions that share that bit.
var (
	optModel = [len(optActions)]bool{false, false, true, true}
	optSlot  = [len(optActions)]int{0, 1, 0, 1}
)

// optSlots is the number of optActions per model bit.
const optSlots = 2

// maskTables holds everything a probe of the exhaustive sweep needs that
// its model mask fixes (bit c set when context c runs a model).
// Specialized and Merged add the same msAdd, and Discard and Downlink add
// an exact zero, so frame time depends only on the mask; so do the
// processed fraction p, admissibility and the FillIdle chunk. Each
// context's chunk under each action its mask bit allows is tabulated with
// the evaluator's expressions, so a probe only sums table entries.
type maskTables struct {
	// ft[mask] is the frame time and ok[mask] is admissible(ft) ||
	// mask == 0 (full elision is always admissible).
	ft []time.Duration
	ok []bool
	// fill[2*mask] and fill[2*mask+1] are the FillIdle chunk's bits and
	// value, zero when the environment adds none.
	fill []float64
	// terms[mask*row+offset(c, d)] and the entry after it are context c's
	// chunk bits and value under optActions[d], zero for a dead model or
	// Discard.
	terms   []float64
	row     int
	capFrac float64
}

// newMaskTables tabulates every model mask of k contexts.
func newMaskTables(ev *evaluator, k int) *maskTables {
	nMask := 1 << k
	mt := &maskTables{
		ft:      make([]time.Duration, nMask),
		ok:      make([]bool, nMask),
		fill:    make([]float64, 2*nMask),
		row:     k * optSlots * 2,
		capFrac: ev.env.CapacityFrac,
	}
	mt.terms = make([]float64, nMask*mt.row)
	for mask := 0; mask < nMask; mask++ {
		ms := ev.baseMs
		for c := 0; c < k; c++ {
			if mask>>c&1 != 0 {
				// Every model action carries the same addend.
				ms += ev.msAdd[c*actionStride+int(Specialized)]
			}
		}
		ft := time.Duration(ms * float64(time.Millisecond))
		mt.ft[mask] = ft
		mt.ok[mask] = mask == 0 || ev.env.admissible(ft)
		p := 1.0
		if ft > ev.env.Deadline && ft > 0 {
			p = float64(ev.env.Deadline) / float64(ft)
		}
		for c := 0; c < k; c++ {
			for d, a := range optActions {
				idx := c*actionStride + int(a)
				if optModel[d] != (mask>>c&1 != 0) || !ev.counted[idx] {
					continue
				}
				pf := p * ev.tf[c]
				j := mask*mt.row + mt.offset(c, d)
				mt.terms[j] = pf * ev.kept[idx]
				mt.terms[j+1] = pf * ev.frac[idx]
			}
		}
		if ev.env.FillIdle && p < 1 {
			mt.fill[2*mask] = 1 - p
			mt.fill[2*mask+1] = (1 - p) * ev.prevalence
		}
	}
	return mt
}

// offset locates context c's terms under optActions[d] within a row.
func (mt *maskTables) offset(c, d int) int {
	return (c*optSlots + optSlot[d]) * 2
}

// drained returns the high-value bits that reach the ground for a probe
// with the given mask and per-context term offsets: its chunks summed in
// context order and drained into the capacity, as ev.evaluate computes
// Ledger.HighValueBits when the capacity is not <= 0. Where the evaluator
// skips a chunk the table adds an exact zero, which can change only the
// sign of a zero sum; no comparison sees that sign.
func (mt *maskTables) drained(mask int, off []int) float64 {
	t := mt.terms[mask*mt.row:]
	var bits, val float64
	for _, j := range off {
		bits += t[j]
		val += t[j+1]
	}
	bits += mt.fill[2*mask]
	val += mt.fill[2*mask+1]
	if bits > mt.capFrac {
		val *= mt.capFrac / bits
	}
	return val
}

// isAllElide reports whether a selection runs no models at all (always
// admissible as a fallback: its duty is the context engine only).
func isAllElide(s Selection) bool {
	for _, a := range s.Actions {
		if a == Specialized || a == Merged || a == Generic {
			return false
		}
	}
	return true
}

func hillClimb(tp TilingProfile, env Env) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)
	sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	for i := range sel.Actions {
		sel.Actions[i] = Specialized
	}
	est := ev.evaluate(sel.Actions)
	for improved := true; improved; {
		improved = false
		for i := 0; i < k; i++ {
			orig := sel.Actions[i]
			for a := Action(0); a < numActions; a++ {
				if a == orig {
					continue
				}
				sel.Actions[i] = a
				cand := ev.evaluate(sel.Actions)
				if (env.admissible(cand.FrameTime) || isAllElide(sel)) && better(cand, est) {
					est = cand
					improved = true
					orig = a
				} else {
					sel.Actions[i] = orig
				}
			}
		}
	}
	return sel, est
}

// better orders estimates: DVD first, then recovery, then frame time.
func better(a, b Estimate) bool {
	const eps = 1e-12
	if a.DVD > b.DVD+eps {
		return true
	}
	if a.DVD < b.DVD-eps {
		return false
	}
	ar, br := a.Ledger.Recovery(), b.Ledger.Recovery()
	if ar > br+eps {
		return true
	}
	if ar < br-eps {
		return false
	}
	return a.FrameTime < b.FrameTime
}

// evaluator caches every (tiling, environment)-dependent term of Evaluate
// so the optimizer's inner loop — millions of probes per selection-logic
// generation — runs allocation-free on precomputed per-context constants.
// evaluate must stay bit-identical to EvaluateAtTime: the golden figure
// outputs depend on it (see TestEvaluatorMatchesEvaluate), so every
// expression below keeps the exact shape and accumulation order of the
// reference path.
type evaluator struct {
	env        Env
	prevalence float64
	// baseMs is the context-engine term of the frame time (zero when the
	// environment does not run the engine).
	baseMs float64
	// tf[c] is context c's TileFrac.
	tf []float64
	// Flat per-(context, action) tables at index c*numActions+int(a),
	// turning the probe loop into branch-free table lookups:
	//
	//   msAdd    frame-time addend (tiles*TileFrac*PerTileMs for model
	//            actions, exactly as FrameTime associates it; 0 otherwise —
	//            adding literal zero to a non-negative sum is exact)
	//   counted  whether the action queues a chunk (Downlink, or a model
	//            action whose confusion has nonzero total)
	//   kept     chunk bits per processed tile fraction: 1 for Downlink
	//            (x*1 is exact), the confusion's PositiveRate for models
	//   frac     chunk value per processed tile fraction: HighValueFrac
	//            for Downlink, TP/Total for models
	msAdd      []float64
	counted    []bool
	kept, frac []float64
}

// actionStride is the per-context width of the evaluator's flat tables:
// every Action value, including Deferred (declared past numActions), must
// index without bounds surprises. Deferred's table entries stay zero —
// it adds no frame time and queues no chunk, matching Evaluate.
const actionStride = int(Deferred) + 1

// newEvaluator precomputes the per-context terms for one profile in one
// environment.
func newEvaluator(tp TilingProfile, env Env) *evaluator {
	k := len(tp.Contexts)
	nA := actionStride
	e := &evaluator{
		env:        env,
		prevalence: tp.Prevalence(),
		tf:         make([]float64, k),
		msAdd:      make([]float64, k*nA),
		counted:    make([]bool, k*nA),
		kept:       make([]float64, k*nA),
		frac:       make([]float64, k*nA),
	}
	tiles := float64(tp.Tiling.Tiles())
	if env.UseEngine {
		e.baseMs = tiles * env.Target.ContextEngineMsPerTile()
	}
	for c, cp := range tp.Contexts {
		e.tf[c] = cp.TileFrac
		modelMs := tiles * cp.TileFrac * env.App.PerTileMs[env.Target]
		di := c*nA + int(Downlink)
		e.counted[di] = true
		e.kept[di] = 1
		e.frac[di] = cp.HighValueFrac
		for _, a := range [...]Action{Specialized, Merged, Generic} {
			conf := cp.Special
			switch a {
			case Merged:
				conf = cp.Merged
			case Generic:
				conf = cp.Generic
			}
			idx := c*nA + int(a)
			e.msAdd[idx] = modelMs
			total := float64(conf.Total())
			if total == 0 {
				// Dead model: costs frame time but queues no chunk.
				continue
			}
			e.counted[idx] = true
			e.kept[idx] = conf.PositiveRate()
			e.frac[idx] = float64(conf.TP) / total
		}
	}
	return e
}

// frameTime is FrameTime over the cached terms.
func (e *evaluator) frameTime(actions []Action) time.Duration {
	ms := e.baseMs
	nA := actionStride
	for c, a := range actions {
		ms += e.msAdd[c*nA+int(a)]
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// evaluate is EvaluateAtTime(sel, tp, env, frameTime(sel)) without the
// chunk-slice allocation: the drain (value.Drain) is inlined as a running
// sum because a frame's chunk mix is consumed exactly once, in order.
func (e *evaluator) evaluate(actions []Action) Estimate {
	ft := e.frameTime(actions)
	p := 1.0
	if ft > e.env.Deadline && ft > 0 {
		p = float64(e.env.Deadline) / float64(ft)
	}
	var totalBits, totalVal float64
	chunks := 0
	nA := actionStride
	for c, a := range actions {
		idx := c*nA + int(a)
		if !e.counted[idx] {
			continue
		}
		// Each product is rounded before it is summed, as the chunk
		// values of EvaluateAtTime are, so no platform fuses the two.
		pf := p * e.tf[c]
		totalBits += float64(pf * e.kept[idx])
		totalVal += float64(pf * e.frac[idx])
		chunks++
	}
	if e.env.FillIdle && p < 1 {
		totalBits += 1 - p
		totalVal += float64((1 - p) * e.prevalence)
		chunks++
	}
	bits, val := totalBits, totalVal
	switch {
	case e.env.CapacityFrac <= 0 || chunks == 0:
		// Mirrors value.Drain's empty cases: no capacity, or no chunks at
		// all (all-discard with no filler) downlinks nothing.
		bits, val = 0, 0
	case totalBits > e.env.CapacityFrac:
		f := e.env.CapacityFrac / totalBits
		bits, val = e.env.CapacityFrac, totalVal*f
	}
	led := value.Ledger{
		CapacityBits:          e.env.CapacityFrac,
		DownlinkedBits:        bits,
		HighValueBits:         val,
		ObservedBits:          1,
		ObservedHighValueBits: e.prevalence,
	}
	return Estimate{FrameTime: ft, ProcessedFrac: p, Ledger: led, DVD: led.DVD()}
}

// SatellitesForCoverage returns the constellation population needed for
// continuous ground-track processing coverage when one satellite needs
// frameTime per frame against the deadline — prior OEC work's
// satellite-parallel pipelining (Figure 11).
func SatellitesForCoverage(frameTime, deadline time.Duration) int {
	if deadline <= 0 {
		panic("policy: non-positive deadline")
	}
	if frameTime <= deadline {
		return 1
	}
	n := int(frameTime / deadline)
	if frameTime%deadline != 0 {
		n++
	}
	return n
}
