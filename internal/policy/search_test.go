package policy

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
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

// decodeSearchCase turns fuzz bytes into 1-4 tiling profiles of 0-8
// contexts and an environment. Flags select FillIdle, zero capacity, a
// duty cap, contexts that repeat earlier ones, and tilings that repeat
// the first, so exact ties inside a tiling and across tilings both occur.
func decodeSearchCase(data []byte) ([]TilingProfile, Env) {
	r := byteReader(data)
	k := int(r.next() % 9)
	nTilings := 1 + int(r.next()%4)
	sel := r.next()
	flags := r.next()
	env := Env{
		App:          app.App(1 + int(sel/3)%7),
		Target:       hw.Targets()[int(sel)%3],
		Deadline:     time.Duration(r.next()) * 100 * time.Millisecond,
		CapacityFrac: 1.5 * r.frac(),
		FillIdle:     flags&1 != 0,
	}
	if flags&2 != 0 {
		env.CapacityFrac = 0
	}
	if flags&4 != 0 {
		env.MaxDutyCycle = r.frac()
	}
	confusion := func() nn.Confusion {
		return nn.Confusion{TP: int(r.next()), FP: int(r.next()), TN: int(r.next()), FN: int(r.next()) % 4}
	}
	profiles := make([]TilingProfile, nTilings)
	for t := range profiles {
		if t > 0 && flags&16 != 0 {
			profiles[t] = profiles[0]
			continue
		}
		tp := TilingProfile{Tiling: tiling.Tiling{PerSide: 1 + int(r.next()%12)}}
		for c := 0; c < k; c++ {
			if c > 0 && flags&8 != 0 && r.next()%2 == 0 {
				tp.Contexts = append(tp.Contexts, tp.Contexts[int(r.next())%c])
				continue
			}
			tp.Contexts = append(tp.Contexts, ContextProfile{
				TileFrac:      r.frac(),
				HighValueFrac: r.frac(),
				Generic:       confusion(),
				Special:       confusion(),
				Merged:        confusion(),
			})
		}
		profiles[t] = tp
	}
	return profiles, env
}

// checkOptimizeMatchesOracle fails unless Optimize returns the oracle's
// selection and Estimate bit for bit.
func checkOptimizeMatchesOracle(t *testing.T, profiles []TilingProfile, env Env) {
	t.Helper()
	wantSel, wantEst := oracleOptimize(profiles, env)
	gotSel, gotEst := Optimize(profiles, env)
	if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
		t.Fatalf("Optimize diverged from the oracle\nenv %+v\nwant %v %v %+v\ngot  %v %v %+v",
			env, wantSel.Tiling, wantSel.Actions, wantEst, gotSel.Tiling, gotSel.Actions, gotEst)
	}
}

func sameSelection(a, b Selection) bool {
	if a.Tiling != b.Tiling || len(a.Actions) != len(b.Actions) {
		return false
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			return false
		}
	}
	return true
}

// benchProfiles builds n tilings of k random contexts each.
func benchProfiles(k, n int) []TilingProfile {
	rng := xrand.New(uint64(100*k + n))
	profiles := make([]TilingProfile, n)
	for i := range profiles {
		profiles[i] = randomProfile(k, rng)
		profiles[i].Tiling.PerSide = 2 + i
	}
	return profiles
}

// TestOptimizeMatchesOracle pins the mask-table search and the per-tiling
// fan-out to the reference sweep on hand-built cases: duplicated contexts
// and duplicated tilings (exact ties), zero capacity, duty caps down to
// one no model fits, FillIdle on and off, and every target.
func TestOptimizeMatchesOracle(t *testing.T) {
	tied := testProfile(4)
	tied.Contexts = append(tied.Contexts, tied.Contexts...)
	sets := map[string][]TilingProfile{
		"fixture":          {testProfile(3), testProfile(11)},
		"tied contexts":    {tied},
		"tied tilings":     {testProfile(6), testProfile(6), testProfile(6)},
		"k=8, 2 tilings":   benchProfiles(8, 2),
		"k=5, 4 tilings":   benchProfiles(5, 4),
		"no contexts":      {{Tiling: tiling.Tiling{PerSide: 3}}},
		"uniform contexts": {randomProfile(1, xrand.New(3))},
	}
	envs := map[string]func(*Env){
		"default":    func(*Env) {},
		"no fill":    func(e *Env) { e.FillIdle = false },
		"zero link":  func(e *Env) { e.CapacityFrac = 0 },
		"duty cap":   func(e *Env) { e.MaxDutyCycle = 0.25 },
		"cap < base": func(e *Env) { e.MaxDutyCycle = 1e-6 },
		"short deadline": func(e *Env) {
			e.Deadline = 2 * time.Second
		},
	}
	for name, profiles := range sets {
		for envName, tweak := range envs {
			for _, target := range hw.Targets() {
				t.Run(fmt.Sprintf("%s/%s/%v", name, envName, target), func(t *testing.T) {
					env := testEnv()
					env.Target = target
					tweak(&env)
					checkOptimizeMatchesOracle(t, profiles, env)
				})
			}
		}
	}
}

// TestOptimizeMatchesOracleRandom runs the fuzz decoder over seeded random
// bytes, so tier-1 covers the fuzz domain without the fuzzer.
func TestOptimizeMatchesOracleRandom(t *testing.T) {
	rng := xrand.New(2023)
	data := make([]byte, 256)
	for trial := 0; trial < 300; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		profiles, env := decodeSearchCase(data)
		checkOptimizeMatchesOracle(t, profiles, env)
	}
}

// TestExhaustivePartialSweepMatchesOracle covers sweeps that stop short
// of the full code range.
func TestExhaustivePartialSweepMatchesOracle(t *testing.T) {
	tp := testProfile(3)
	env := testEnv()
	for _, combos := range []int{0, 1, 2, 5, 27, 63, 64} {
		wantSel, wantEst := oracleExhaustive(tp, env, combos)
		gotSel, gotEst := exhaustiveSearch(tp, env, combos)
		if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
			t.Fatalf("combos %d: got %v %+v, want %v %+v", combos, gotSel.Actions, gotEst, wantSel.Actions, wantEst)
		}
	}
}

// TestMaskTablesMatchEvaluator checks the sweep's per-probe arithmetic
// against ev.evaluate on random assignments: frame time, admissibility and
// the drained high-value bits, equal up to the sign of a zero.
func TestMaskTablesMatchEvaluator(t *testing.T) {
	rng := xrand.New(77)
	data := make([]byte, 256)
	for trial := 0; trial < 200; trial++ {
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		profiles, env := decodeSearchCase(data)
		env.UseEngine = true
		tp := profiles[0]
		k := len(tp.Contexts)
		ev := newEvaluator(tp, env)
		mt := newMaskTables(ev, k)
		actions := make([]Action, k)
		off := make([]int, k)
		for probe := 0; probe < 50; probe++ {
			mask := 0
			for c := range actions {
				d := rng.Intn(len(optActions))
				actions[c], off[c] = optActions[d], mt.offset(c, d)
				if optModel[d] {
					mask |= 1 << c
				}
			}
			est := ev.evaluate(actions)
			if mt.ft[mask] != est.FrameTime {
				t.Fatalf("trial %d %v: frame time %v, want %v", trial, actions, mt.ft[mask], est.FrameTime)
			}
			if want := env.admissible(est.FrameTime) || isAllElide(Selection{Actions: actions}); mt.ok[mask] != want {
				t.Fatalf("trial %d %v: admissible %t, want %t", trial, actions, mt.ok[mask], want)
			}
			if env.CapacityFrac <= 0 {
				continue
			}
			got, want := mt.drained(mask, off), est.Ledger.HighValueBits
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d %v: drained value %v, want %v", trial, actions, got, want)
			}
		}
	}
}

// FuzzOptimize asserts that Optimize equals the reference sweep bit for
// bit on arbitrary profiles and environments.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 240, 60})
	f.Add([]byte{8, 3, 5, 8 | 1, 100, 30})
	f.Add([]byte{6, 2, 7, 16 | 4 | 1, 50, 200, 128})
	f.Add([]byte{4, 1, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		profiles, env := decodeSearchCase(data)
		checkOptimizeMatchesOracle(t, profiles, env)
	})
}

// TestOptimizeWorkersDeterministic checks that the fan-out width does not
// change the result: one worker, GOMAXPROCS workers and more workers than
// tilings all fold to the same selection.
func TestOptimizeWorkersDeterministic(t *testing.T) {
	for _, profiles := range [][]TilingProfile{benchProfiles(6, 4), {testProfile(6), testProfile(6)}} {
		env := testEnv()
		wantSel, wantEst := optimize(profiles, env, 1)
		for _, workers := range []int{runtime.GOMAXPROCS(0), 2, 8} {
			gotSel, gotEst := optimize(profiles, env, workers)
			if !sameSelection(gotSel, wantSel) || !estimatesIdentical(gotEst, wantEst) {
				t.Fatalf("%d workers: got %v %v, want %v %v", workers, gotSel.Tiling, gotSel.Actions, wantSel.Tiling, wantSel.Actions)
			}
		}
	}
}

// TestExhaustiveSearchAllocsIndependentOfProbes pins the sequential
// search's allocations: a fixed set of tables per call, the same at 4^2
// probes as at 4^8.
func TestExhaustiveSearchAllocsIndependentOfProbes(t *testing.T) {
	env := testEnv()
	env.UseEngine = true
	allocs := func(k int) float64 {
		tp := benchProfiles(k, 1)[0]
		combos := 1 << (2 * k)
		return testing.AllocsPerRun(5, func() { exhaustiveSearch(tp, env, combos) })
	}
	small, large := allocs(2), allocs(8)
	if small != large || large > 16 {
		t.Fatalf("exhaustive search allocates %.0f objects at k=2 and %.0f at k=8, want the same small constant", small, large)
	}
}

var (
	benchSel Selection
	benchEst Estimate
)

func benchmarkOptimize(b *testing.B, search func([]TilingProfile, Env) (Selection, Estimate)) {
	for _, n := range []int{2, 4} {
		profiles := benchProfiles(8, n)
		env := testEnv()
		b.Run(fmt.Sprintf("k=8/tilings=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSel, benchEst = search(profiles, env)
			}
		})
	}
}

// BenchmarkOptimize times the selection-logic search at the exhaustive
// bound (4^8 probes per tiling).
func BenchmarkOptimize(b *testing.B) { benchmarkOptimize(b, Optimize) }

// BenchmarkOptimizeOracle times the reference sweep on the same inputs.
func BenchmarkOptimizeOracle(b *testing.B) { benchmarkOptimize(b, oracleOptimize) }
