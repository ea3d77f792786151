package core_test

import (
	"context"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/rng"
	"rdbsc/internal/workload"
)

// churnProblem prepares a 400×800 churn-scenario population, the shape of
// the serving benchmark's churn-ingest workload: one large component of
// roughly 12k valid pairs.
func churnProblem(b *testing.B) *core.Problem {
	b.Helper()
	sc, err := workload.ByName("churn")
	if err != nil {
		b.Fatal(err)
	}
	return core.NewProblem(sc.Instance(workload.Params{M: 400, N: 800, Seed: 65, Horizon: 4}))
}

// BenchmarkSamplingSolveChurn runs the default sampling solver (64 samples)
// on the churn population. pairs·samples is the work unit the adaptive
// controller's sampling cost coefficient is expressed in; ns/unit reports
// it directly.
func BenchmarkSamplingSolveChurn(b *testing.B) {
	p := churnProblem(b)
	s := core.NewSampling()
	units := float64(len(p.Pairs) * s.SampleCount(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), p, &core.SolveOptions{Source: rng.New(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/units, "ns/unit")
}

// BenchmarkEvaluate evaluates one complete sampled assignment of the churn
// population through Problem.Evaluate, the path every solver's final
// result takes.
func BenchmarkEvaluate(b *testing.B) {
	p := churnProblem(b)
	res, err := (&core.Sampling{FixedK: 1}).Solve(context.Background(), p, &core.SolveOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(res.Assignment)
	}
}
