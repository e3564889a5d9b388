package engine

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkSubmitInto times one 64-op SubmitInto (32 pushes + 32 pops)
// on a half-filled engine. One submitter never contends; four and eight
// share the execution lock, so a share of their batches wait on it. allocs/op is the steady-state allocation count per batch: 0.
func BenchmarkSubmitInto(b *testing.B) {
	for _, submitters := range []int{1, 4, 8} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("submitters=%d/shards=%d", submitters, shards), func(b *testing.B) {
				e, ops, _ := zeroAllocEngine(b, shards)
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < submitters; w++ {
					n := b.N / submitters
					if w == 0 {
						n += b.N % submitters
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						res := make([]Result, len(ops))
						for i := 0; i < n; i++ {
							e.SubmitInto(ops, res)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
