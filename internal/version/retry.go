package version

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// CommitRetry retry policy. The base doubles per attempt (capped) with up
// to 50% added jitter, so racing writers that all lost to the same GC pass
// do not reconverge on the store in lockstep.
const (
	commitRetryAttempts = 16
	commitRetryBase     = 500 * time.Microsecond
	commitRetryCap      = 50 * time.Millisecond
)

// CommitRetry runs mutate against the current head version of branch and
// commits the result as a compare-and-swap on the branch head: the commit
// lands only if the head is still the commit mutate's index was checked
// out from. When another writer committed in between (ErrHeadMoved), or
// the commit lost its flushed pages to a concurrent GC pass
// (ErrCommitRaced), nothing moves and the attempt is redone from a fresh
// checkout, with exponential backoff and jitter between attempts. Every
// commit CommitRetry returns therefore descends from — and contains — every
// commit that was on the branch when it landed, so concurrent writers on
// one branch never drop each other's acknowledged work. This is the loop
// every concurrent writer would otherwise hand-roll; the forkbase servlet's
// put path and the GC soak tests both commit through it.
//
// mutate receives the branch head's checked-out index — nil when the
// branch does not exist yet, in which case mutate must build the first
// version itself, and the commit lands only if the branch still does not
// exist — and returns the successor version to commit. mutate may run more
// than once and must be restartable: derive the new version only from the
// index passed in, never from state captured outside the call. Any error
// from mutate aborts the loop unchanged. When the attempts are exhausted
// the last ErrHeadMoved or ErrCommitRaced is returned wrapped.
func CommitRetry(r *Repo, branch, message string, mutate func(idx core.Index) (core.Index, error)) (Commit, error) {
	return CommitRetryMeta(r, branch, message, nil, mutate)
}

// CommitRetryMeta is CommitRetry with commit metadata: every attempt
// records the same meta bytes on the commit it tries (see Repo.CommitMeta),
// under the same compare-and-swap on the branch head. The ingest merge
// path uses it so the WAL high-water mark survives however many GC races
// the commit has to ride out.
func CommitRetryMeta(r *Repo, branch, message string, meta []byte, mutate func(idx core.Index) (core.Index, error)) (Commit, error) {
	var lastErr error
	for attempt := 0; attempt < commitRetryAttempts; attempt++ {
		if attempt > 0 {
			sleepBackoff(attempt)
		}
		// base stays zero for a missing branch: the commit then lands only
		// if no other writer created the branch first.
		base, idx, err := r.checkoutBranch(branch)
		if err != nil && !errors.Is(err, ErrUnknownBranch) {
			return Commit{}, err
		}
		next, err := mutate(idx)
		if err != nil {
			return Commit{}, err
		}
		c, err := r.commitMeta(branch, next, message, meta, &base)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, ErrCommitRaced) && !errors.Is(err, ErrHeadMoved) {
			return Commit{}, err
		}
		lastErr = err
	}
	return Commit{}, fmt.Errorf("version: commit retry exhausted after %d attempts: %w",
		commitRetryAttempts, lastErr)
}

// sleepBackoff sleeps the capped exponential backoff for one retry
// attempt, with jitter.
func sleepBackoff(attempt int) {
	d := commitRetryBase << (attempt - 1)
	if d > commitRetryCap || d <= 0 {
		d = commitRetryCap
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	time.Sleep(d)
}
