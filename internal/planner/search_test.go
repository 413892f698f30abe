package planner

import (
	"fmt"
	"math"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// frac maps a byte onto [0, 1].
func (r *byteReader) frac() float64 { return float64(r.next()) / 255 }

// decodeDecideCase turns fuzz bytes into a tiling profile of 0-8 contexts,
// a base selection and a planner environment. Flags select FillIdle, zero
// capacity, a duty cap, and contexts that repeat earlier ones (with the
// same base action), so exact ties occur.
func decodeDecideCase(data []byte) (policy.TilingProfile, policy.Selection, Env) {
	r := byteReader(data)
	k := int(r.next() % 9)
	sel := r.next()
	flags := r.next()
	env := testEnv()
	env.Policy.App = app.App(1 + int(sel/3)%7)
	env.Policy.Target = hw.Targets()[int(sel)%3]
	env.Policy.Deadline = time.Duration(1+int(r.next())) * 100 * time.Millisecond
	env.Policy.CapacityFrac = 1.5 * r.frac()
	env.Policy.FillIdle = flags&1 != 0
	if flags&2 != 0 {
		env.Policy.CapacityFrac = 0
	}
	if flags&4 != 0 {
		env.Policy.MaxDutyCycle = r.frac()
	}
	env.Costs = Costs{
		ValuePerFrame:  2 * r.frac(),
		RawDiscount:    r.frac(),
		LinkPerFrame:   0.5 * r.frac(),
		GroundPerFrame: 2 * r.frac(),
		EnergyPerKJ:    r.frac(),
	}
	env.BufferFrames = 128 * r.frac()
	env.FramesBetweenContacts = 50 * r.frac()

	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 1 + int(r.next()%12)}}
	base := policy.Selection{Tiling: prof.Tiling}
	pool := []policy.Action{policy.Discard, policy.Downlink, policy.Specialized, policy.Merged, policy.Generic}
	confusion := func() nn.Confusion {
		return nn.Confusion{TP: int(r.next()), FP: int(r.next()), TN: int(r.next()), FN: int(r.next()) % 4}
	}
	for c := 0; c < k; c++ {
		if c > 0 && flags&8 != 0 && r.next()%2 == 0 {
			j := int(r.next()) % c
			prof.Contexts = append(prof.Contexts, prof.Contexts[j])
			base.Actions = append(base.Actions, base.Actions[j])
			continue
		}
		prof.Contexts = append(prof.Contexts, policy.ContextProfile{
			TileFrac:      r.frac(),
			HighValueFrac: r.frac(),
			Generic:       confusion(),
			Special:       confusion(),
			Merged:        confusion(),
		})
		base.Actions = append(base.Actions, pool[int(r.next())%len(pool)])
	}
	return prof, base, env
}

// checkDecideMatchesOracle fails unless DecideCtx returns the oracle's
// plan — placements, actions and every Eval field — bit for bit.
func checkDecideMatchesOracle(t *testing.T, prof policy.TilingProfile, base policy.Selection, env Env) {
	t.Helper()
	want, wantErr := oracleDecide(prof, base, env)
	got, gotErr := decideNoJournal(prof, base, env)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error %v, oracle error %v", gotErr, wantErr)
	}
	if !samePlan(got, want) {
		t.Fatalf("DecideCtx diverged from the oracle\nenv %+v\nwant %v %+v\ngot  %v %+v",
			env, want.Dispositions, want.Eval, got.Dispositions, got.Eval)
	}
}

func samePlan(a, b Plan) bool {
	if a.Tiling != b.Tiling || len(a.Dispositions) != len(b.Dispositions) || len(a.Actions) != len(b.Actions) {
		return false
	}
	for i := range a.Dispositions {
		if a.Dispositions[i] != b.Dispositions[i] {
			return false
		}
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return false
		}
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	x, y := a.Eval, b.Eval
	return x.FrameTime == y.FrameTime &&
		same(x.Utility, y.Utility) && same(x.ValueFrames, y.ValueFrames) &&
		same(x.NowBits, y.NowBits) && same(x.DeferBits, y.DeferBits) &&
		same(x.OnboardFrac, y.OnboardFrac) && same(x.DownlinkFrac, y.DownlinkFrac) &&
		same(x.DeferFrac, y.DeferFrac) && same(x.DropFrac, y.DropFrac) &&
		same(x.EnergyPerFrameJ, y.EnergyPerFrameJ) && same(x.GroundFrames, y.GroundFrames) &&
		same(x.DVD, y.DVD)
}

// benchCase is a K=8 placement problem over random contexts.
func benchCase() (policy.TilingProfile, policy.Selection, Env) {
	rng := xrand.New(8)
	prof := randProfile(rng)
	for len(prof.Contexts) < 8 {
		prof.Contexts = append(prof.Contexts, randProfile(rng).Contexts...)
	}
	prof.Contexts = prof.Contexts[:8]
	env := testEnv()
	return prof, randBase(rng, prof), env
}

// TestDecideMatchesOracle pins the mask-table placement search to the
// reference sweep on hand-built cases: duplicated contexts (exact ties),
// zero capacity, duty caps, FillIdle on and off, an empty buffer, free
// ground compute, and every target.
func TestDecideMatchesOracle(t *testing.T) {
	tied := testProfile()
	tied.Contexts = append(tied.Contexts, tied.Contexts...)
	k8, k8Base, _ := benchCase()
	cases := map[string]struct {
		prof policy.TilingProfile
		base func(policy.TilingProfile, Env) policy.Selection
	}{
		"fixture":       {testProfile(), baseFor},
		"tied contexts": {tied, baseFor},
		"k=8":           {k8, func(policy.TilingProfile, Env) policy.Selection { return k8Base }},
		"no contexts": {policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 3}},
			func(p policy.TilingProfile, _ Env) policy.Selection { return policy.Selection{Tiling: p.Tiling} }},
	}
	envs := map[string]func(*Env){
		"default":     func(*Env) {},
		"fill idle":   func(e *Env) { e.Policy.FillIdle = true },
		"zero link":   func(e *Env) { e.Policy.CapacityFrac = 0 },
		"duty cap":    func(e *Env) { e.Policy.MaxDutyCycle = 0.1 },
		"no buffer":   func(e *Env) { e.BufferFrames = 0 },
		"free ground": func(e *Env) { e.Costs.GroundPerFrame = 0 },
		"tight deadline": func(e *Env) {
			e.Policy.Deadline = time.Second
		},
	}
	for name, c := range cases {
		for envName, tweak := range envs {
			for _, target := range hw.Targets() {
				t.Run(fmt.Sprintf("%s/%s/%v", name, envName, target), func(t *testing.T) {
					env := testEnv()
					env.Policy.Target = target
					tweak(&env)
					checkDecideMatchesOracle(t, c.prof, c.base(c.prof, env), env)
				})
			}
		}
	}
}

// TestDecideMatchesOracleRandom runs the fuzz decoder over seeded random
// bytes, so tier-1 covers the fuzz domain without the fuzzer.
func TestDecideMatchesOracleRandom(t *testing.T) {
	rng := xrand.New(2023)
	data := make([]byte, 256)
	for trial := 0; trial < 300; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		prof, base, env := decodeDecideCase(data)
		checkDecideMatchesOracle(t, prof, base, env)
	}
}

// FuzzDecide asserts that DecideCtx equals the reference sweep bit for bit
// on arbitrary profiles, base selections and environments.
func FuzzDecide(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 240, 60})
	f.Add([]byte{8, 5, 8 | 1, 100, 30})
	f.Add([]byte{6, 7, 4 | 1, 50, 200, 128})
	f.Add([]byte{4, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		prof, base, env := decodeDecideCase(data)
		checkDecideMatchesOracle(t, prof, base, env)
	})
}

// TestDecideSearchAllocsIndependentOfProbes pins the placement search's
// allocations: a fixed set of tables per call, the same at 4^2 probes as
// at 4^8.
func TestDecideSearchAllocsIndependentOfProbes(t *testing.T) {
	prof8, base8, env := benchCase()
	env.Policy.UseEngine = true
	allocs := func(k int) float64 {
		prof := policy.TilingProfile{Tiling: prof8.Tiling, Contexts: prof8.Contexts[:k]}
		base := policy.Selection{Tiling: prof.Tiling, Actions: base8.Actions[:k]}
		opts := contextOptions(prof, base, env)
		combos := 1 << (2 * k)
		return testing.AllocsPerRun(5, func() { exhaustiveSearch(opts, prof, env, combos) })
	}
	small, large := allocs(2), allocs(8)
	if small != large || large > 16 {
		t.Fatalf("placement search allocates %.0f objects at k=2 and %.0f at k=8, want the same small constant", small, large)
	}
}

var benchPlan Plan

func benchmarkDecide(b *testing.B, decide func(policy.TilingProfile, policy.Selection, Env) (Plan, error)) {
	prof, base, env := benchCase()
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if benchPlan, err = decide(prof, base, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideCtx times the placement search at the exhaustive bound
// (4^8 probes).
func BenchmarkDecideCtx(b *testing.B) { benchmarkDecide(b, decideNoJournal) }

// BenchmarkDecideOracle times the reference sweep on the same input.
func BenchmarkDecideOracle(b *testing.B) { benchmarkDecide(b, oracleDecide) }
