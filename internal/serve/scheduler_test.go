package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerDrainUnderLoad closes the scheduler while submitters are
// still racing it and checks the drain contract: every job accepted
// before Close runs to completion exactly once, every submission that
// loses the race gets ErrDraining (never a lost job, never a panic on a
// closed channel), and submissions after drain keep failing. Run with
// -race to check the Submit/Close interleaving.
func TestSchedulerDrainUnderLoad(t *testing.T) {
	var executed atomic.Int64
	s := NewScheduler(3, 64, func(j *Job) {
		time.Sleep(time.Millisecond) // keep jobs queued at Close time
		executed.Add(1)
	})

	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
		draining atomic.Int64
	)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				err := s.Submit(&Job{ID: "x"})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrDraining):
					draining.Add(1)
				case errors.Is(err, ErrQueueFull):
					// Backpressure, not drain; retry after a beat.
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("unexpected Submit error: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let jobs pile up in the queue
	s.Close()
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait after Close: %v", err)
	}
	if got, want := executed.Load(), accepted.Load(); got != want {
		t.Fatalf("executed %d of %d accepted jobs (jobs lost or duplicated in drain)", got, want)
	}
	if draining.Load() == 0 {
		t.Fatal("no submitter observed ErrDraining while racing Close")
	}
	// Post-drain submissions must keep failing with ErrDraining.
	if err := s.Submit(&Job{ID: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: %v, want ErrDraining", err)
	}
	// Close is idempotent.
	s.Close()
}
