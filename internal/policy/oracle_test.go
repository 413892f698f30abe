package policy

// The selection-logic search as it stood before the mask-table kernel and
// the per-tiling fan-out: every probe evaluated in full through
// ev.evaluate and folded with better, one tiling after another. It is the
// reference the library search must match bit for bit — selection and
// every Estimate field — including the order in which ties resolve.

// oracleOptimize is the sequential reference for Optimize.
func oracleOptimize(profiles []TilingProfile, env Env) (Selection, Estimate) {
	if len(profiles) == 0 {
		panic("policy: no tiling profiles")
	}
	env.UseEngine = true
	var best Selection
	var bestEst Estimate
	first := true
	for _, tp := range profiles {
		sel, est := oracleOptimizeActions(tp, env)
		if first || better(est, bestEst) {
			best, bestEst = sel, est
			first = false
		}
	}
	return best, bestEst
}

// oracleOptimizeActions is optimizeActions over the reference sweep; past
// maxExhaustive both use the library hill climb.
func oracleOptimizeActions(tp TilingProfile, env Env) (Selection, Estimate) {
	combos := 1
	for i := 0; i < len(tp.Contexts); i++ {
		combos *= len(optActions)
		if combos > maxExhaustive {
			return hillClimb(tp, env)
		}
	}
	return oracleExhaustive(tp, env, combos)
}

// oracleExhaustive is the reference exhaustive sweep over the first combos
// codes, digit 0 fastest.
func oracleExhaustive(tp TilingProfile, env Env, combos int) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)
	sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	best := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	var bestEst Estimate
	first := true
	for code := 0; code < combos; code++ {
		c := code
		for i := range sel.Actions {
			sel.Actions[i] = optActions[c%len(optActions)]
			c /= len(optActions)
		}
		est := ev.evaluate(sel.Actions)
		if !env.admissible(est.FrameTime) && !isAllElide(sel) {
			continue
		}
		if first || better(est, bestEst) {
			copy(best.Actions, sel.Actions)
			bestEst = est
			first = false
		}
	}
	if first {
		for i := range best.Actions {
			best.Actions[i] = Discard
		}
		bestEst = ev.evaluate(best.Actions)
	}
	return best, bestEst
}
