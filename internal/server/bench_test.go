package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"rckalign/internal/batcher"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// BenchmarkServeCoalesce measures what batching buys the service: a
// burst of concurrent one-vs-all requests against the same target,
// served with default batching versus batch size 1 (one flush per
// pair). Both sides compute each pair exactly once through the server's
// memoized pair store. Each iteration uses a fresh server so neither
// side can amortize across iterations.
func BenchmarkServeCoalesce(b *testing.B) {
	const n, burst = 10, 8
	ds := synth.Small(n, 1)
	opt := tmalign.FastOptions()

	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(cfg)
			if err := s.Preload(ds.Structures); err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for r := 0; r < burst; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := httptest.NewRequest("POST", "/onevsall?target="+ds.Structures[0].ID, nil)
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Errorf("onevsall = %d: %s", w.Code, w.Body.String())
					}
				}()
			}
			wg.Wait()
			s.Close()
		}
	}

	b.Run("coalesced", func(b *testing.B) {
		run(b, Config{Dataset: "bench", Options: opt})
	})
	b.Run("uncoalesced", func(b *testing.B) {
		run(b, Config{
			Dataset: "bench",
			Options: opt,
			Batch:   batcher.Config{BatchSize: 1, Workers: 4},
		})
	})
}
