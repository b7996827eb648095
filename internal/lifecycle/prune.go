package lifecycle

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/buildcache"
	"repro/internal/store"
	"repro/internal/txn"
)

// PruneOptions bound a mirror's build_cache area. Zero values disable
// each bound.
type PruneOptions struct {
	// MaxBytes is the size budget: after the sweep the cache totals at
	// most this many bytes, coldest archives evicted first.
	MaxBytes int64
	// MaxAge evicts archives whose last access is older. Archives never
	// touched since the backend came up carry a zero stamp and count as
	// infinitely cold — an age bound reaps them first.
	MaxAge time.Duration
	// DryRun computes the eviction set without deleting anything.
	DryRun bool
	// Now anchors age comparisons (defaults to time.Now()).
	Now time.Time
}

// PruneResult reports a prune sweep.
type PruneResult struct {
	// Examined and TotalBytes describe the cache before the sweep.
	Examined   int
	TotalBytes int64
	// Evicted lists the archives chosen (oldest first); Reclaimed totals
	// their bytes. With DryRun nothing was deleted.
	Evicted   []buildcache.ArchiveUsage
	Reclaimed int64
}

// Prune evicts cached archives until the cache fits the given bounds:
// first every archive older than MaxAge, then least-recently-used
// archives until the total is within MaxBytes. An archive, its checksum,
// and its signature move as one unit. When the cache backend stores on
// the store's filesystem the deletions are staged through the store's
// journal (st non-nil), inheriting the crash pre-or-post guarantee;
// otherwise they apply directly.
func Prune(c *buildcache.Cache, st *store.Store, opts PruneOptions) (*PruneResult, error) {
	if opts.MaxBytes <= 0 && opts.MaxAge <= 0 {
		return nil, fmt.Errorf("lifecycle: prune needs a size or age bound")
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	usages, err := c.Usage()
	if err != nil {
		return nil, err
	}
	res := &PruneResult{Examined: len(usages)}
	for _, u := range usages {
		res.TotalBytes += u.Bytes
	}

	// Coldest first: unstamped (seq 0) archives lead, then ascending
	// access order; the hash breaks ties so a fresh process — all stamps
	// zero — still evicts deterministically.
	sort.Slice(usages, func(i, j int) bool {
		if usages[i].Seq != usages[j].Seq {
			return usages[i].Seq < usages[j].Seq
		}
		return usages[i].FullHash < usages[j].FullHash
	})

	remaining := res.TotalBytes
	for _, u := range usages {
		tooOld := opts.MaxAge > 0 && (u.Last.IsZero() || now.Sub(u.Last) > opts.MaxAge)
		overBudget := opts.MaxBytes > 0 && remaining > opts.MaxBytes
		if !tooOld && !overBudget {
			// Size-ordered walk is coldest-first, so once we are within
			// budget every later archive is warmer; age evictions are a
			// prefix of the same order (colder ⇒ older). Nothing further
			// can qualify.
			break
		}
		res.Evicted = append(res.Evicted, u)
		res.Reclaimed += u.Bytes
		remaining -= u.Bytes
	}

	if opts.DryRun || len(res.Evicted) == 0 {
		return res, nil
	}

	if st != nil {
		t := txn.Begin(st.FS, st.JournalDir())
		defer t.Rollback()
		staged := true
		for _, u := range res.Evicted {
			if !c.StageDelete(t, u.FullHash) {
				staged = false
				break
			}
		}
		if staged {
			if err := t.Commit(st.Applier()); err != nil {
				return nil, err
			}
			return res, nil
		}
		// Backend cannot stage: fall through to direct deletion.
	}
	for _, u := range res.Evicted {
		if err := c.Delete(u.FullHash); err != nil {
			return nil, err
		}
	}
	return res, nil
}
