package adaptive

import (
	"math"
	"testing"
	"time"
)

func TestNewPanicsWithoutBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with a zero budget did not panic")
		}
	}()
	New(Config{})
}

func TestPlanLaneSelection(t *testing.T) {
	c := New(Config{Budget: 50 * time.Millisecond})

	// Tiny component, tiny population: exact enumeration.
	if d := c.Plan(8, math.Log(100)); d.Lane != LaneExhaustive {
		t.Errorf("tiny component planned lane %v, want exhaustive", d.Lane)
	}
	// Small pair set but an astronomically large population: the population
	// cap rules exhaustive out and the greedy lane takes it.
	if d := c.Plan(8, 200); d.Lane != LaneGreedy {
		t.Errorf("large-population component planned lane %v, want greedy", d.Lane)
	}
	// Mid-size component, well under the initial greedy threshold.
	if d := c.Plan(1000, 500); d.Lane != LaneGreedy {
		t.Errorf("mid component planned lane %v, want greedy", d.Lane)
	}
	// Past the greedy threshold: budget-capped sampling, with the round cap
	// inside the configured clamp.
	big := c.CurrentThresholds().GreedyMaxPairs + 1
	d := c.Plan(big, 5000)
	if d.Lane != LaneSampling {
		t.Fatalf("huge component planned lane %v, want sampling", d.Lane)
	}
	if d.SampleCap < 64 || d.SampleCap > 1<<16 {
		t.Errorf("sampling round cap %d outside the default clamp [64, 65536]", d.SampleCap)
	}
	// An empty component degenerates to the greedy no-op.
	if d := c.Plan(0, 0); d.Lane != LaneGreedy {
		t.Errorf("empty component planned lane %v, want greedy", d.Lane)
	}
}

// TestConvergenceUnderLatencyStep drives the controller with a simulated
// latency regime change — greedy solves suddenly cost 20µs/pair instead of
// the assumed 9.5µs — and checks the greedy size threshold converges to a
// value whose predicted latency fits the budget again.
func TestConvergenceUnderLatencyStep(t *testing.T) {
	const budget = 50 * time.Millisecond
	c := New(Config{Budget: budget})
	before := c.CurrentThresholds().GreedyMaxPairs

	// A 5000-pair component is greedy under the initial coefficient
	// (predicted 47.5ms).
	if d := c.Plan(5000, 1e6); d.Lane != LaneGreedy {
		t.Fatalf("pre-step: 5000-pair component planned lane %v, want greedy", d.Lane)
	}

	// The step: every observed greedy solve of 1000 pairs now takes 20ms
	// (20µs/pair — about 2x the initial coefficient).
	for i := 0; i < 40; i++ {
		c.Observe(Decision{Lane: LaneGreedy}, 1000, 20*time.Millisecond)
	}

	after := c.CurrentThresholds().GreedyMaxPairs
	if after >= before {
		t.Fatalf("greedy threshold did not tighten after the latency step: %d -> %d", before, after)
	}
	// Converged coefficient ~20000ns/pair => threshold ~ budget/coef = 2500
	// pairs. Allow EWMA slack but require the right decade.
	if after < 2000 || after > 3500 {
		t.Errorf("greedy threshold after convergence = %d pairs, want ~2500", after)
	}
	// The threshold is self-consistent: a component at the threshold is
	// predicted within budget.
	d := c.Plan(after, 1e6)
	if d.Lane != LaneGreedy {
		t.Fatalf("component at threshold planned lane %v, want greedy", d.Lane)
	}
	if budgetMS := float64(budget) / float64(time.Millisecond); d.PredictedMS > budgetMS {
		t.Errorf("predicted latency at threshold %.2fms exceeds budget %.0fms", d.PredictedMS, budgetMS)
	}
	// The 5000-pair component that used to be greedy is now routed to
	// sampling — the re-tuned threshold changed the decision.
	if d := c.Plan(5000, 1e6); d.Lane != LaneSampling {
		t.Errorf("post-step: 5000-pair component planned lane %v, want sampling", d.Lane)
	}

	// The regime relaxes back: fast greedy solves (0.5µs/pair) widen the
	// threshold again.
	for i := 0; i < 60; i++ {
		c.Observe(Decision{Lane: LaneGreedy}, 1000, 500*time.Microsecond)
	}
	if relaxed := c.CurrentThresholds().GreedyMaxPairs; relaxed <= after {
		t.Errorf("greedy threshold did not relax after latency recovered: %d -> %d", after, relaxed)
	}
}

func TestSampleCapAdaptsToCoefficient(t *testing.T) {
	c := New(Config{Budget: 10 * time.Second})
	// Make the greedy lane look expensive so a 100-pair component must
	// sample (exhaustive is ruled out by the population estimate).
	for i := 0; i < 40; i++ {
		c.Observe(Decision{Lane: LaneGreedy}, 32, time.Minute)
	}
	d := c.Plan(100, 1e6)
	if d.Lane != LaneSampling {
		t.Fatalf("planned lane %v, want sampling", d.Lane)
	}
	// 10s over 50ns/unit and 100 pairs allows millions of samples; the cap
	// must clamp at MaxSamples.
	if d.SampleCap != 1<<16 {
		t.Errorf("generous budget: sample cap %d, want the MaxSamples ceiling %d", d.SampleCap, 1<<16)
	}

	// A tiny budget floors at MinSamples instead (the quality floor).
	tight := New(Config{Budget: time.Microsecond})
	d = tight.Plan(100000, 1e6)
	if d.Lane != LaneSampling {
		t.Fatalf("tight budget: planned lane %v, want sampling", d.Lane)
	}
	if d.SampleCap != 64 {
		t.Errorf("tight budget: sample cap %d, want the MinSamples floor 64", d.SampleCap)
	}
}

func TestHeadroomLoop(t *testing.T) {
	c := New(Config{Budget: 10 * time.Millisecond})
	// Sustained violations tighten the effective budget down to the floor.
	for i := 0; i < 50; i++ {
		c.ObserveRequest(20 * time.Millisecond)
	}
	th := c.CurrentThresholds()
	if math.Abs(th.Headroom-headroomFloor) > 1e-9 {
		t.Errorf("headroom after sustained violations = %v, want the floor %v", th.Headroom, headroomFloor)
	}
	if got := c.StatsSnapshot().SLOViolations; got != 50 {
		t.Errorf("SLOViolations = %d, want 50", got)
	}
	// The tightened headroom shrinks every derived threshold.
	if full := New(Config{Budget: 10 * time.Millisecond}).CurrentThresholds().GreedyMaxPairs; th.GreedyMaxPairs >= full {
		t.Errorf("tightened greedy threshold %d not below the unconstrained %d", th.GreedyMaxPairs, full)
	}
	// Sustained under-budget solves relax it back to exactly 1.
	for i := 0; i < 400; i++ {
		c.ObserveRequest(time.Millisecond)
	}
	if h := c.CurrentThresholds().Headroom; h != 1 {
		t.Errorf("headroom after recovery = %v, want 1", h)
	}
}

func TestPlanRequestMinEffortFloor(t *testing.T) {
	c := New(Config{Budget: time.Millisecond})

	// Empty shape: nothing to solve, never over budget.
	if p := c.PlanRequest(nil); p.OverBudget || p.PredictedMS != 0 {
		t.Errorf("nil shape: PlanRequest = %+v, want zero", p)
	}
	if p := c.PlanRequest(&Shape{}); p.OverBudget {
		t.Errorf("empty shape reported over budget")
	}

	// A huge component whose minimum-effort cost (sampling at the
	// MinSamples floor) dwarfs the budget: the degrade signal.
	huge := &Shape{Pairs: 100000, Components: []ComponentShape{{Pairs: 100000, LnPopulation: 1e6}}}
	p := c.PlanRequest(huge)
	if !p.OverBudget {
		t.Errorf("100k-pair component under a 1ms budget not flagged over budget (predicted %.2fms)", p.PredictedMS)
	}

	// The same component under a generous budget is admitted.
	roomy := New(Config{Budget: 30 * time.Second})
	if p := roomy.PlanRequest(huge); p.OverBudget {
		t.Errorf("100k-pair component under a 30s budget flagged over budget (predicted %.2fms)", p.PredictedMS)
	}
	if p := roomy.PlanRequest(huge); p.PredictedMS <= 0 {
		t.Errorf("PlanRequest predicted %.4fms, want > 0", p.PredictedMS)
	}
}

func TestDegradeAndFallbackCounters(t *testing.T) {
	c := New(Config{Budget: time.Millisecond})
	c.NoteDegraded(true)
	c.NoteDegraded(true)
	c.NoteDegraded(false)
	c.NoteFallback()
	st := c.StatsSnapshot()
	if st.Degraded != 3 || st.StaleServed != 2 || st.Shed != 1 || st.Fallbacks != 1 {
		t.Errorf("counters = degraded %d staleServed %d shed %d fallbacks %d, want 3/2/1/1",
			st.Degraded, st.StaleServed, st.Shed, st.Fallbacks)
	}
	if st.BudgetMS != 1 {
		t.Errorf("BudgetMS = %v, want 1", st.BudgetMS)
	}
	if st.MaxStaleMS != 5000 {
		t.Errorf("MaxStaleMS = %v, want the 5000 default", st.MaxStaleMS)
	}
}
