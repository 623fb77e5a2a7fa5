package version_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
)

// TestCommitRetryNoLostUpdate races many single-key CommitRetry writers on
// one branch. CommitRetry's contract is that each commit applies mutate to
// the head it lands on, so the final head must hold every writer's key and
// the log must be one linear chain of every commit. An unconditional
// commit lets two writers that built on the same head both land, the later
// one dropping the earlier one's key.
func TestCommitRetryNoLostUpdate(t *testing.T) {
	const (
		writers = 8
		perW    = 25
	)
	cls := classByName(t, "POS-Tree")
	s := store.NewMemStore()
	repo := newRepo(s)
	seed, err := cls.new(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Commit("main", seed, "seed"); err != nil {
		t.Fatal(err)
	}
	wkey := func(w, i int) []byte { return []byte(fmt.Sprintf("w%02d-%03d", w, i)) }

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				_, err := version.CommitRetry(repo, "main", fmt.Sprintf("w%d-%d", w, i),
					func(idx core.Index) (core.Index, error) {
						return idx.Put(wkey(w, i), []byte("v"))
					})
				if err != nil {
					errs <- fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	head, err := repo.CheckoutBranch("main")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			if _, ok, err := head.Get(wkey(w, i)); err != nil || !ok {
				t.Fatalf("key %q lost from the final head (ok=%v, err=%v)", wkey(w, i), ok, err)
			}
		}
	}
	log, err := repo.Log("main")
	if err != nil {
		t.Fatal(err)
	}
	if want := writers*perW + 1; len(log) != want {
		t.Fatalf("log has %d commits, want %d (seed + one per CommitRetry)", len(log), want)
	}
}

// TestCommitRetryRedoesOnHeadMoved moves the branch between CommitRetry's
// checkout and its commit: the first attempt must fail the head check
// (ErrHeadMoved) without moving anything, and the retry must rebuild on
// the interloper's commit — including on a branch that did not exist at
// the first checkout.
func TestCommitRetryRedoesOnHeadMoved(t *testing.T) {
	cls := classByName(t, "POS-Tree")
	for _, exists := range []bool{true, false} {
		t.Run(fmt.Sprintf("branchExists=%v", exists), func(t *testing.T) {
			s := store.NewMemStore()
			repo := newRepo(s)
			base, err := cls.new(s)
			if err != nil {
				t.Fatal(err)
			}
			if exists {
				if _, err := repo.Commit("main", base, "seed"); err != nil {
					t.Fatal(err)
				}
			}
			calls := 0
			c, err := version.CommitRetry(repo, "main", "mine", func(idx core.Index) (core.Index, error) {
				calls++
				if calls == 1 {
					// Another writer commits between this checkout and
					// this commit.
					other, err := base.Put([]byte("other"), []byte("o"))
					if err != nil {
						return nil, err
					}
					if _, err := repo.Commit("main", other, "interloper"); err != nil {
						return nil, err
					}
				}
				if idx == nil {
					idx = base
				}
				return idx.Put([]byte("mine"), []byte("m"))
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls != 2 {
				t.Fatalf("mutate ran %d times, want 2 (one lost head check, one retry)", calls)
			}
			head, ok := repo.Head("main")
			if !ok || head.ID != c.ID {
				t.Fatalf("head %v is not the retried commit %v", head.ID, c.ID)
			}
			idx, err := repo.Checkout(c.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"other", "mine"} {
				if _, ok, err := idx.Get([]byte(k)); err != nil || !ok {
					t.Fatalf("key %q missing from the retried commit (ok=%v, err=%v)", k, ok, err)
				}
			}
			log, err := repo.Log("main")
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{true: 3, false: 2}[exists]; len(log) != want {
				t.Fatalf("log has %d commits, want %d", len(log), want)
			}
		})
	}
}
