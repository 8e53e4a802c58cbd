package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// The oracle is the generator's own model of every version it has been told
// exists. It never reads the program's state: expected checkouts, diffs, SQL
// aggregates, merge results and user-byte counts all come from here.

// rec identifies one user record by primary key and generation; every column
// value is a pure function of the pair, so equal recs mean equal rows.
type rec uint64

const genBits = 24

func mkRec(pk, gen int64) rec { return rec(uint64(pk)<<genBits | uint64(gen)) }
func (r rec) pk() int64       { return int64(uint64(r) >> genBits) }
func (r rec) gen() int64      { return int64(uint64(r) & (1<<genBits - 1)) }

func (r rec) grp() int64 { return r.pk() % 16 }

func (r rec) val() int64 {
	x := uint64(r)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int64(x % 1000000)
}

func (r rec) note() string {
	return "r" + strconv.FormatInt(r.pk(), 10) + "-g" + strconv.FormatInt(r.gen(), 10)
}

// userBytes is a record's size as the user supplied it: three 8-byte
// integers plus the note's bytes.
func (r rec) userBytes() int64 { return 24 + int64(len(r.note())) }

// appendJSON renders the record as the commit body's JSON row.
func (r rec) appendJSON(b []byte) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, r.pk(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.grp(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.val(), 10)
	b = append(b, ",\""...)
	b = append(b, r.note()...)
	return append(b, "\"]"...)
}

// snapshotEvery bounds the delta chain a version is materialized through.
const snapshotEvery = 16

type version struct {
	vid     int64
	parents []int // model indices
	level   int   // longest path from a root, as the program defines it
	// A version is stored either in full or as a delta against base.
	full  []rec
	base  int
	puts  []rec   // records added or replaced, sorted
	dels  []int64 // primary keys removed, sorted
	depth int
}

type model struct {
	mu        sync.Mutex
	vers      []*version
	byVid     map[int64]int
	seen      map[rec]struct{}
	userBytes int64
	// perturb shifts one expected value so a run can prove its checks bite.
	perturb bool
}

func newModel() *model {
	return &model{byVid: map[int64]int{}, seen: map[rec]struct{}{}}
}

// add records that vid exists with the given content (sorted by primary key).
func (m *model) add(vid int64, parents []int64, content []rec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byVid[vid]; dup {
		return fmt.Errorf("version %d acknowledged twice", vid)
	}
	v := &version{vid: vid, base: -1, level: 1}
	for _, p := range parents {
		i, ok := m.byVid[p]
		if !ok {
			return fmt.Errorf("version %d: unknown parent %d", vid, p)
		}
		v.parents = append(v.parents, i)
		if l := m.vers[i].level + 1; l > v.level {
			v.level = l
		}
	}
	if len(v.parents) == 1 && m.vers[v.parents[0]].depth+1 < snapshotEvery {
		b := v.parents[0]
		v.base, v.depth = b, m.vers[b].depth+1
		v.puts, v.dels = delta(m.contentLocked(b), content)
	} else {
		v.full = content
	}
	for _, r := range content {
		if _, ok := m.seen[r]; !ok {
			m.seen[r] = struct{}{}
			m.userBytes += r.userBytes()
		}
	}
	m.byVid[vid] = len(m.vers)
	m.vers = append(m.vers, v)
	return nil
}

// content materializes vid's expected records, sorted by primary key.
func (m *model) content(vid int64) ([]rec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.byVid[vid]
	if !ok {
		return nil, fmt.Errorf("version %d is not in the model", vid)
	}
	return m.contentLocked(i), nil
}

func (m *model) contentLocked(i int) []rec {
	v := m.vers[i]
	if v.full != nil {
		return v.full
	}
	return applyDelta(m.contentLocked(v.base), v.puts, v.dels)
}

func (m *model) vids() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.vers))
	for i, v := range m.vers {
		out[i] = v.vid
	}
	return out
}

func (m *model) distinctUserBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.userBytes
}

// mergeBase mirrors the program's documented merge rule: theirs already an
// ancestor of ours is up to date, ours an ancestor of theirs fast-forwards,
// and otherwise the base is the common ancestor of greatest level (ties to
// the larger version id).
func (m *model) mergeBase(ours, theirs int64) (base int64, upToDate, fastForward bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	oi, ok1 := m.byVid[ours]
	ti, ok2 := m.byVid[theirs]
	if !ok1 || !ok2 {
		return 0, false, false, fmt.Errorf("merge of unknown versions %d, %d", ours, theirs)
	}
	ancO, ancT := m.ancestorsLocked(oi), m.ancestorsLocked(ti)
	if ancO[ti] {
		return theirs, true, false, nil
	}
	if ancT[oi] {
		return ours, false, true, nil
	}
	best := -1
	for i := range ancO {
		if !ancT[i] {
			continue
		}
		if best < 0 || m.vers[i].level > m.vers[best].level ||
			(m.vers[i].level == m.vers[best].level && m.vers[i].vid > m.vers[best].vid) {
			best = i
		}
	}
	if best < 0 {
		return 0, false, false, fmt.Errorf("versions %d and %d share no ancestor", ours, theirs)
	}
	return m.vers[best].vid, false, false, nil
}

func (m *model) ancestorsLocked(i int) map[int]bool {
	seen := map[int]bool{i: true}
	stack := []int{i}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range m.vers[v].parents {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// mergeFormula is the record-set merge (ours∩theirs)∪(ours−base)∪(theirs−base).
func mergeFormula(base, ours, theirs []rec) []rec {
	return union(union(intersect(ours, theirs), minus(ours, base)), minus(theirs, base))
}

// Sorted-set algebra over recs. Within one version a primary key appears
// once, so sorting by rec value sorts by primary key.

func intersect(a, b []rec) []rec {
	var out []rec
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func minus(a, b []rec) []rec {
	var out []rec
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

func union(a, b []rec) []rec {
	out := make([]rec, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// delta expresses next as puts and deletions against prev.
func delta(prev, next []rec) (puts []rec, dels []int64) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		switch {
		case j == len(next) || (i < len(prev) && prev[i].pk() < next[j].pk()):
			dels = append(dels, prev[i].pk())
			i++
		case i == len(prev) || next[j].pk() < prev[i].pk():
			puts = append(puts, next[j])
			j++
		default:
			if prev[i] != next[j] {
				puts = append(puts, next[j])
			}
			i++
			j++
		}
	}
	return puts, dels
}

func applyDelta(prev, puts []rec, dels []int64) []rec {
	out := make([]rec, 0, len(prev)+len(puts)-len(dels))
	i, j, k := 0, 0, 0
	for i < len(prev) || j < len(puts) {
		if i < len(prev) {
			pk := prev[i].pk()
			for k < len(dels) && dels[k] < pk {
				k++
			}
			if k < len(dels) && dels[k] == pk {
				i++
				continue
			}
		}
		switch {
		case j == len(puts) || (i < len(prev) && prev[i].pk() < puts[j].pk()):
			out = append(out, prev[i])
			i++
		case i == len(prev) || puts[j].pk() < prev[i].pk():
			out = append(out, puts[j])
			j++
		default:
			out = append(out, puts[j])
			i++
			j++
		}
	}
	return out
}

// withChanges returns a copy of content with each listed primary key moved to
// generation gen (added when absent), sorted by primary key.
func withChanges(content []rec, pks []int64, gen int64) []rec {
	puts := make([]rec, 0, len(pks))
	for _, pk := range pks {
		puts = append(puts, mkRec(pk, gen))
	}
	sort.Slice(puts, func(i, j int) bool { return puts[i] < puts[j] })
	return applyDelta(content, dedupPK(puts), nil)
}

func dedupPK(rs []rec) []rec {
	out := rs[:0]
	for i, r := range rs {
		if i > 0 && r.pk() == rs[i-1].pk() {
			continue
		}
		out = append(out, r)
	}
	return out
}

// aggregate is the expected answer of SELECT count(*), sum(val).
func (m *model) aggregate(rs []rec) (count, sum int64) {
	for _, r := range rs {
		sum += r.val()
	}
	if m.perturb {
		sum++
	}
	return int64(len(rs)), sum
}

// checkRows compares rows as decoded from a JSON response (numbers as
// float64) against the expected records.
func checkRows(want []rec, rows [][]any) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(want))
	}
	seen := make([]bool, len(want))
	for _, row := range rows {
		if len(row) != 4 {
			return fmt.Errorf("row has %d columns, want 4", len(row))
		}
		pk, ok1 := row[0].(float64)
		grp, ok2 := row[1].(float64)
		val, ok3 := row[2].(float64)
		note, ok4 := row[3].(string)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return fmt.Errorf("row %v has unexpected types", row)
		}
		i := sort.Search(len(want), func(i int) bool { return want[i].pk() >= int64(pk) })
		if i == len(want) || want[i].pk() != int64(pk) || seen[i] {
			return fmt.Errorf("unexpected or repeated row with id %v", pk)
		}
		seen[i] = true
		r := want[i]
		if int64(grp) != r.grp() || int64(val) != r.val() || note != r.note() {
			return fmt.Errorf("row %v differs from expected %v", row, r.appendJSON(nil))
		}
	}
	return nil
}
