package sim

import (
	"testing"

	"spacx/internal/dnn"
	"spacx/internal/obs"
)

// The no-op recorder must keep the analytical hot path free of
// instrumentation overhead; compare with an attached registry:
//
//	go test -bench BenchmarkRunLayer ./internal/sim
//
// The steady-state ~216 B/op against 0 allocs/op is slab carving, not a
// leak in the accounting: each call permanently retains its flow slice
// (~192 B) and FlowSecs (~24 B) out of pooled slabs (internal/dataflow), so
// the bytes are real and amortized while the block allocation lands once
// per ~hundred calls and rounds to zero. make bench-check guards both
// numbers (B/op via the byte allowance in internal/bench).
func BenchmarkRunLayerNop(b *testing.B) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("conv", 56, 64, 64, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLayerObserved(acc, l, WholeInference, obs.Nop()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLayerObserved(b *testing.B) {
	acc := SPACXAccel()
	l := dnn.NewSameConv("conv", 56, 64, 64, 3, 1)
	reg := obs.NewRegistry(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLayerObserved(acc, l, WholeInference, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunModelNop(b *testing.B) {
	acc := SPACXAccel()
	m := dnn.AlexNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunObserved(acc, m, WholeInference, obs.Nop()); err != nil {
			b.Fatal(err)
		}
	}
}
