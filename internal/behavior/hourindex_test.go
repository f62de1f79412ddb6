package behavior

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// keyGroup is one fn call of ScanBetween / ForEachKey.
type keyGroup struct {
	key  Key
	logs []Log
}

func collect(scan func(fn func(Key, []Log))) []keyGroup {
	var out []keyGroup
	scan(func(k Key, logs []Log) { out = append(out, keyGroup{k, logs}) })
	return out
}

// bruteRange filters every stored log (in insertion order) to
// [from, to) and stable-sorts by time, so equal timestamps keep
// insertion order.
func bruteRange(all []Log, from, to time.Time) []Log {
	var in []Log
	for _, l := range all {
		if !l.Time.Before(from) && l.Time.Before(to) {
			in = append(in, l)
		}
	}
	slices.SortStableFunc(in, func(a, b Log) int { return a.Time.Compare(b.Time) })
	return in
}

// bruteGroups is the reference for the hour index: bruteRange grouped by
// key, keys in order of first appearance.
func bruteGroups(all []Log, from, to time.Time) []keyGroup {
	var out []keyGroup
	for _, l := range bruteRange(all, from, to) {
		i := slices.IndexFunc(out, func(g keyGroup) bool { return g.key == l.Key() })
		if i < 0 {
			i = len(out)
			out = append(out, keyGroup{key: l.Key()})
		}
		out[i].logs = append(out[i].logs, l)
	}
	return out
}

func sameLogs(a, b []Log) bool {
	return slices.EqualFunc(a, b, func(x, y Log) bool {
		return x.User == y.User && x.Key() == y.Key() && x.Time.Equal(y.Time)
	})
}

func diffGroups(got, want []keyGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key {
			return fmt.Errorf("key %d is %v, want %v", i, got[i].key, want[i].key)
		}
		if !sameLogs(got[i].logs, want[i].logs) {
			return fmt.Errorf("key %v logs %v, want %v", got[i].key, got[i].logs, want[i].logs)
		}
	}
	return nil
}

// randomWorkload appends a random mix of single and batched logs around
// base: out of order, with repeated timestamps, spread over ~10 hours.
// It returns every appended log in insertion order.
func randomWorkload(rng *rand.Rand, s *Store, base time.Time) []Log {
	var all []Log
	var reuse []time.Time
	mkLog := func() Log {
		var at time.Time
		if len(reuse) > 0 && rng.Intn(4) == 0 {
			at = reuse[rng.Intn(len(reuse))] // equal timestamp
		} else {
			at = base.Add(time.Duration(rng.Int63n(int64(10 * time.Hour))))
			reuse = append(reuse, at)
		}
		return Log{
			User:  UserID(rng.Intn(6)),
			Type:  Type(rng.Intn(3)),
			Value: fmt.Sprint("v", rng.Intn(4)),
			Time:  at,
		}
	}
	for step := 0; step < 30; step++ {
		if rng.Intn(2) == 0 {
			l := mkLog()
			s.Append(l)
			all = append(all, l)
			continue
		}
		batch := make([]Log, rng.Intn(9))
		for i := range batch {
			batch[i] = mkLog()
		}
		s.AppendBatch(batch)
		all = append(all, batch...)
	}
	return all
}

// randomRange returns [from, to) around base: hour-aligned or not,
// crossing hour boundaries, empty or inverted.
func randomRange(rng *rand.Rand, base time.Time) (time.Time, time.Time) {
	at := func() time.Time {
		t := base.Add(time.Duration(rng.Int63n(int64(12*time.Hour))) - time.Hour)
		if rng.Intn(3) == 0 {
			t = t.Truncate(time.Hour)
		}
		return t
	}
	from, to := at(), at()
	switch rng.Intn(6) {
	case 0:
		to = from // empty
	case 1:
		from, to = to, from // inverted (or equal)
	default:
		if to.Before(from) {
			from, to = to, from
		}
	}
	return from, to
}

func checkIndex(t *testing.T, rng *rand.Rand, s *Store, all []Log, base time.Time) {
	t.Helper()
	if s.Len() != len(all) {
		t.Fatalf("Len %d, want %d", s.Len(), len(all))
	}
	forever := base.Add(1000 * time.Hour)
	if err := diffGroups(collect(s.ForEachKey), bruteGroups(all, base.Add(-1000*time.Hour), forever)); err != nil {
		t.Fatalf("ForEachKey: %v", err)
	}
	for q := 0; q < 20; q++ {
		from, to := randomRange(rng, base)
		got := collect(func(fn func(Key, []Log)) { s.ScanBetween(from, to, fn) })
		if err := diffGroups(got, bruteGroups(all, from, to)); err != nil {
			t.Fatalf("ScanBetween [%v, %v): %v", from, to, err)
		}
		for u := UserID(0); u < 6; u++ {
			want := slices.DeleteFunc(bruteRange(all, from, to), func(l Log) bool { return l.User != u })
			if got := s.UserLogsBetween(u, from, to); !sameLogs(got, want) {
				t.Fatalf("UserLogsBetween(%d, %v, %v) = %v, want %v", u, from, to, got, want)
			}
		}
	}
}

// TestHourIndexMatchesBruteForce pins ScanBetween, ForEachKey and
// UserLogsBetween against a filter-and-group over every stored log: the
// same keys in the same order, each with the same logs in the same
// order, before and after DropBefore.
func TestHourIndexMatchesBruteForce(t *testing.T) {
	bases := []time.Time{
		t0.Add(17 * time.Minute),
		time.Date(1969, 12, 31, 20, 30, 0, 0, time.UTC), // crosses 1970
		time.Date(1900, 6, 1, 0, 0, 0, 1, time.UTC),
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := bases[int(seed)%len(bases)]
		s := NewStore()
		all := randomWorkload(rng, s, base)
		checkIndex(t, rng, s, all, base)

		cutoff, _ := randomRange(rng, base)
		kept := slices.DeleteFunc(slices.Clone(all), func(l Log) bool { return l.Time.Before(cutoff) })
		if removed := s.DropBefore(cutoff); removed != len(all)-len(kept) {
			t.Fatalf("seed %d: DropBefore removed %d, want %d", seed, removed, len(all)-len(kept))
		}
		checkIndex(t, rng, s, kept, base)
	}
}
