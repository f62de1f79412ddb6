package behavior

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Store is a concurrency-safe in-memory behavior log store with two
// indexes: by user (for feature computation) and by event hour (for the
// BN window jobs, which only need the logs inside their window). Logs
// are kept sorted by time within each index, with equal timestamps in
// insertion order, which the BN builder and sliding-window feature
// counters rely on for range scans.
type Store struct {
	mu     sync.RWMutex
	byUser map[UserID][]Log
	chunks []hourChunk // ascending by hour
	count  int
}

// chunkWidth is the hour index's bucket width: the smallest window of
// both the BN hierarchy and the statistical features.
const chunkWidth = time.Hour

// hourChunk holds every log whose time falls in one clock hour.
type hourChunk struct {
	hour int64 // hours since 1970, rounded down
	logs []Log
}

// hourOf returns the chunk hour of t. Truncate rounds down, also before
// 1970, and the Unix epoch is a whole number of hours past the zero time.
func hourOf(t time.Time) int64 {
	return t.Truncate(chunkWidth).Unix() / int64(chunkWidth/time.Second)
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byUser: make(map[UserID][]Log)}
}

// chunkIndex returns the index of the first chunk with hour ≥ h.
func (s *Store) chunkIndex(h int64) int {
	return sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].hour >= h })
}

// chunkFor returns the chunk of hour h, inserting an empty one if absent.
func (s *Store) chunkFor(h int64) *hourChunk {
	i := s.chunkIndex(h)
	if i == len(s.chunks) || s.chunks[i].hour != h {
		s.chunks = slices.Insert(s.chunks, i, hourChunk{hour: h})
	}
	return &s.chunks[i]
}

// Append adds one log to both indexes.
func (s *Store) Append(l Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byUser[l.User] = insertSorted(s.byUser[l.User], l)
	c := s.chunkFor(hourOf(l.Time))
	c.logs = insertSorted(c.logs, l)
	s.count++
}

// AppendBatch bulk-loads many logs: entries are appended to both indexes
// and each touched slice is re-sorted once, which is far cheaper than
// per-log sorted insertion for large loads. The sort is stable, so equal
// timestamps keep insertion order exactly as with Append.
func (s *Store) AppendBatch(logs []Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	touchedUsers := make(map[UserID]struct{})
	byHour := make(map[int64][]Log)
	for _, l := range logs {
		s.byUser[l.User] = append(s.byUser[l.User], l)
		touchedUsers[l.User] = struct{}{}
		h := hourOf(l.Time)
		byHour[h] = append(byHour[h], l)
	}
	s.count += len(logs)
	for u := range touchedUsers {
		sortLogs(s.byUser[u])
	}
	hours := make([]int64, 0, len(byHour))
	for h := range byHour {
		hours = append(hours, h)
	}
	// Ascending hours make every new chunk of an in-order load an append.
	slices.Sort(hours)
	for _, h := range hours {
		c := s.chunkFor(h)
		c.logs = append(c.logs, byHour[h]...)
		sortLogs(c.logs)
	}
}

func sortLogs(logs []Log) {
	sort.SliceStable(logs, func(i, j int) bool { return logs[i].Time.Before(logs[j].Time) })
}

// insertSorted keeps the slice ordered by time; logs usually arrive in
// order so the common case is a plain append.
func insertSorted(logs []Log, l Log) []Log {
	n := len(logs)
	if n == 0 || !l.Time.Before(logs[n-1].Time) {
		return append(logs, l)
	}
	i := sort.Search(n, func(i int) bool { return logs[i].Time.After(l.Time) })
	logs = append(logs, Log{})
	copy(logs[i+1:], logs[i:])
	logs[i] = l
	return logs
}

// Len returns the total number of stored logs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// UserCount returns how many distinct users have logs.
func (s *Store) UserCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byUser)
}

// Users returns the IDs of all users with at least one log, sorted.
func (s *Store) Users() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]UserID, 0, len(s.byUser))
	for id := range s.byUser {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// UserLogs returns a copy of all logs of one user, ordered by time.
func (s *Store) UserLogs(u UserID) []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Log(nil), s.byUser[u]...)
}

// UserLogsBetween returns the user's logs with Time in [from, to).
func (s *Store) UserLogsBetween(u UserID, from, to time.Time) []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Log(nil), rangeOf(s.byUser[u], from, to)...)
}

// ForEachKey calls fn once per distinct (type, value) key with all of
// that key's logs ordered by time. Keys come in order of their first
// log. fn runs on a copy, outside the store lock.
func (s *Store) ForEachKey(fn func(k Key, logs []Log)) {
	s.mu.RLock()
	parts := make([][]Log, len(s.chunks))
	for i, c := range s.chunks {
		parts[i] = c.logs
	}
	keys, groups := groupByKey(parts)
	s.mu.RUnlock()
	for i, k := range keys {
		fn(k, groups[i])
	}
}

// ScanBetween calls fn for every log with Time in [from, to), grouped by
// key, with keys in order of their first log in the range. Only the hour
// chunks overlapping the range are visited; fn runs on a copy, outside
// the store lock.
func (s *Store) ScanBetween(from, to time.Time, fn func(k Key, logs []Log)) {
	s.mu.RLock()
	lo, hi := s.chunkIndex(hourOf(from)), s.chunkIndex(hourOf(to)+1)
	var parts [][]Log
	for i := lo; i < hi; i++ {
		logs := s.chunks[i].logs
		if i == lo || i == hi-1 {
			logs = rangeOf(logs, from, to)
		}
		parts = append(parts, logs)
	}
	keys, groups := groupByKey(parts)
	s.mu.RUnlock()
	for i, k := range keys {
		fn(k, groups[i])
	}
}

// groupByKey copies the concatenation of parts into per-key slices:
// keys in order of first appearance, each key's logs in the order given.
func groupByKey(parts [][]Log) (keys []Key, groups [][]Log) {
	slot := make(map[Key]int)
	for _, p := range parts {
		for _, l := range p {
			k := l.Key()
			i, ok := slot[k]
			if !ok {
				i = len(keys)
				slot[k] = i
				keys = append(keys, k)
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], l)
		}
	}
	return keys, groups
}

// rangeOf returns the sub-slice of time-sorted logs with Time in
// [from, to), without copying.
func rangeOf(logs []Log, from, to time.Time) []Log {
	lo := sort.Search(len(logs), func(i int) bool { return !logs[i].Time.Before(from) })
	hi := sort.Search(len(logs), func(i int) bool { return !logs[i].Time.Before(to) })
	if lo >= hi {
		return nil
	}
	return logs[lo:hi]
}

// Dump returns a full copy of the store's logs, grouped by user in
// ascending user order with each user's logs in time order. The ordering
// is deterministic and AppendBatch-stable, so a checkpointed store
// restored via AppendBatch reproduces the original per-user log order
// exactly (internal/persist relies on this).
func (s *Store) Dump() []Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	users := make([]UserID, 0, len(s.byUser))
	for u := range s.byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	out := make([]Log, 0, s.count)
	for _, u := range users {
		out = append(out, s.byUser[u]...)
	}
	return out
}

// DropBefore removes all logs older than cutoff and returns how many
// were removed.
func (s *Store) DropBefore(cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for u, logs := range s.byUser {
		kept := dropOld(logs, cutoff)
		removed += len(logs) - len(kept)
		if len(kept) == 0 {
			delete(s.byUser, u)
		} else {
			s.byUser[u] = kept
		}
	}
	kept := s.chunks[:0]
	for _, c := range s.chunks {
		if c.logs = dropOld(c.logs, cutoff); len(c.logs) > 0 {
			kept = append(kept, c)
		}
	}
	clear(s.chunks[len(kept):])
	s.chunks = kept
	s.count -= removed
	return removed
}

func dropOld(logs []Log, cutoff time.Time) []Log {
	i := sort.Search(len(logs), func(i int) bool { return !logs[i].Time.Before(cutoff) })
	if i == 0 {
		return logs
	}
	return append([]Log(nil), logs[i:]...)
}
