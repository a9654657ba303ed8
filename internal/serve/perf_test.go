package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// hitPathJob is the ladder's serving job (bench/inputs.go): the paper's
// 4x4 mesh at 5 % load, 1000 warm-up + 5000 measured cycles, a ~1.8 KB
// result.
const hitPathJob = `{"kind":"synthetic","synthetic":{"design":"nord","width":4,"height":4,"pattern":"uniform","rate":0.05,"warmup":1000,"measure":5000,"seed":11}}`

// BenchmarkHitPath attributes the server's share of a resubmitted spec —
// the path serve_cache_hit measures from outside — to its parts, as
// BenchmarkStepPhases does for the kernel: the coalesced POST, the GET of
// the finished job, and inside the POST the cache key and the canonical
// encoding under it. Handlers run through httptest recorders, so
// net/http's connection handling and the client (most of the ladder's op)
// are not in these numbers. DESIGN.md §8 has the table.
//
//	go test ./internal/serve -run '^$' -bench HitPath -benchmem
func BenchmarkHitPath(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/j000001", nil))
		return w
	}
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(hitPathJob)))
		return w
	}
	if w := post(); w.Code != http.StatusAccepted {
		b.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	j, _ := s.lookup("j000001")
	select {
	case <-j.Done():
	case <-time.After(time.Minute):
		b.Fatal("job did not finish")
	}
	if j.State() != JobDone {
		b.Fatalf("job %s: %s", j.State(), j.FinalError())
	}
	cfg := goldenSynthConfig()

	b.Run("submit_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if w := post(); w.Code != http.StatusOK {
				b.Fatalf("resubmit: %d", w.Code)
			}
		}
	})
	b.Run("get_terminal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(get().Body.Len()))
		for i := 0; i < b.N; i++ {
			if w := get(); w.Code != http.StatusOK {
				b.Fatalf("get: %d", w.Code)
			}
		}
	})
	b.Run("cache_key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CacheKey("synthetic", cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("canonical_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CanonicalJSON(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
