package planner

import (
	"context"
	"fmt"

	"kodan/internal/policy"
)

// oracleDecide is DecideCtx's placement search as it stood before the
// mask-table kernel: every code decoded by division, every probe priced in
// full through evaluate and folded with betterEval. It is the reference
// the library search must match bit for bit — placements and every Eval
// field — including the order in which ties resolve.
func oracleDecide(prof policy.TilingProfile, base policy.Selection, env Env) (Plan, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, err
	}
	if len(base.Actions) != len(prof.Contexts) {
		return Plan{}, fmt.Errorf("planner: %d base actions for %d contexts",
			len(base.Actions), len(prof.Contexts))
	}
	env.Policy.UseEngine = true
	opts := contextOptions(prof, base, env)
	k := len(prof.Contexts)

	combos := 1
	exhaustive := true
	for i := 0; i < k; i++ {
		combos *= int(numDispositions)
		if combos > maxExhaustive {
			exhaustive = false
			break
		}
	}
	var best []Disposition
	var bestEv Eval
	found := false
	if exhaustive {
		cur := make([]Disposition, k)
		for code := 0; code < combos; code++ {
			c := code
			for i := 0; i < k; i++ {
				cur[i] = Disposition(c % int(numDispositions))
				c /= int(numDispositions)
			}
			ev, ok := evaluate(cur, opts, prof, env)
			if !ok {
				continue
			}
			if !found || betterEval(ev, bestEv) {
				best = append(best[:0], cur...)
				bestEv = ev
				found = true
			}
		}
	} else {
		best, bestEv, found = hillClimb(opts, prof, env)
	}
	if !found {
		best = make([]Disposition, k)
		for i := range best {
			best[i] = Drop
		}
		bestEv, _ = evaluate(best, opts, prof, env)
	}
	actions := make([]policy.Action, k)
	for c, d := range best {
		actions[c] = d.action(base.Actions[c])
	}
	return Plan{
		Tiling:       prof.Tiling,
		Base:         base,
		Dispositions: best,
		Actions:      actions,
		Eval:         bestEv,
	}, nil
}

// decideNoJournal runs DecideCtx without a mission journal, matching the
// oracle's signature.
func decideNoJournal(prof policy.TilingProfile, base policy.Selection, env Env) (Plan, error) {
	return DecideCtx(context.Background(), prof, base, env)
}
