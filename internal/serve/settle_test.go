package serve

import (
	"fmt"
	"testing"
)

// TestSettlePublishesBeforeDone pins settle's order: once Done is closed
// the result is already in the cache, so a waiter woken by Done (a
// search evaluation, RestoreTerminal, a client resubmitting the moment
// it polled "done") can never miss it. Run under -race -count 200 in
// CI: the old finish-then-Put order lost this about one time in ten.
func TestSettlePublishesBeforeDone(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"kind":"synthetic","synthetic":{"design":"no_pg","width":2,"height":2,"rate":0.05,"warmup":10,"measure":50,"seed":%d}}`, i)
		j, err := s.RestoreJob(fmt.Sprintf("j%06d", i+1), []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.disp.Submit(j); err != nil {
			t.Fatal(err)
		}
		// Spin rather than park: the waiter then sees the close within
		// nanoseconds, which is what makes a wrong order observable.
		for done := false; !done; {
			select {
			case <-j.Done():
				done = true
			default:
			}
		}
		if j.State() != JobDone {
			t.Fatalf("job %d: %s %s", i, j.State(), j.FinalError())
		}
		if _, ok := s.cache.Get(j.Key); !ok {
			t.Fatalf("job %d: Done closed before the result reached the cache", i)
		}
	}
}
