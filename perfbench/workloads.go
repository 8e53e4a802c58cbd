package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	orpheusdb "orpheusdb"
)

// A workload builds its store and model in setup, then every client replays
// a fixed, seeded number of rounds; each round is the same sequence of
// operation kinds. finish runs after the timed phase: it re-checks every
// acknowledged version, takes the final checkpoint and records the stored
// bytes (store file plus WAL) that storage_amp divides by the user bytes.
type workload interface {
	setup(r *run) error
	clients() int
	rounds() int
	round(r *run, c *client, ci int, rng *rand.Rand)
	finish(r *run) error
}

// scale holds the input sizes; tiny is the smoke test's.
type scale struct {
	rows     int // rows per version (per client for commit-durable)
	versions int // versions built in setup
	changes  int // rows a commit changes (the window step on disk-cold)
	rounds   int // rounds per client in the timed phase
}

const schemaJSON = `[{"name":"id","type":"integer"},{"name":"grp","type":"integer"},{"name":"val","type":"integer"},{"name":"note","type":"string"}]`

func initDataset(c *client, name, model string) error {
	body := `{"name":"` + name + `","columns":` + schemaJSON + `,"primaryKey":["id"],"model":"` + model + `"}`
	_, err := c.call(kCommit, http.MethodPost, "/api/v1/datasets", []byte(body), http.StatusCreated)
	return err
}

// pickPKs draws n distinct keys from [lo, lo+span).
func pickPKs(rng *rand.Rand, lo int64, span, n int) []int64 {
	out := make([]int64, 0, n)
	for _, i := range rng.Perm(span)[:n] {
		out = append(out, lo+int64(i))
	}
	return out
}

func rangeContent(lo int64, n int, gen int64) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = mkRec(lo+int64(i), gen)
	}
	return out
}

// ---------------------------------------------------------------------------
// read-hot: one client on a version tree whose recent versions fit the
// checkout cache many times over. Each round commits on a side branch and on
// the mainline, merges the two and commits on top of the merge, then reads:
// checkouts skewed to the six newest versions, diffs of recent versions
// against their first parent, one- and two-version SQL.

type readHot struct {
	sc     scale
	order  []int64         // versions in creation order
	parent map[int64]int64 // each version's first parent
	head   int64           // mainline head
	gen    int64
}

const (
	hotDataset     = "hot"
	hotRecent      = 6
	hotCkptEvery   = 32 // acknowledged commits between checkpoints
	hotSampleEvery = 16 // checkouts between full answer checks
)

func (w *readHot) clients() int { return 1 }
func (w *readHot) rounds() int  { return w.sc.rounds }

func (w *readHot) setup(r *run) error {
	if _, err := r.open(orpheusdb.BackendMemory, 0, orpheusdb.FsyncInterval); err != nil {
		return err
	}
	c := r.setupClient()
	defer c.close()
	if err := initDataset(c, hotDataset, "split-by-rlist"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	w.gen = 1
	content := rangeContent(0, w.sc.rows, w.gen)
	vid, err := c.commit(kCommit, hotDataset, nil, content)
	if err != nil {
		return err
	}
	if err := r.model.add(vid, nil, content); err != nil {
		return err
	}
	w.order, w.head, w.parent = []int64{vid}, vid, map[int64]int64{}
	// The tree: most versions extend the mainline, the rest branch off a
	// uniformly chosen older version.
	for len(w.order) < w.sc.versions {
		parent := w.head
		if rng.Intn(4) == 0 {
			parent = w.order[rng.Intn(len(w.order))]
		}
		pc, err := r.model.content(parent)
		if err != nil {
			return err
		}
		w.gen++
		next := withChanges(pc, pickPKs(rng, 0, w.sc.rows, w.sc.changes), w.gen)
		vid, err := c.commit(kCommit, hotDataset, []int64{parent}, next)
		if err != nil {
			return err
		}
		if err := r.model.add(vid, []int64{parent}, next); err != nil {
			return err
		}
		w.order = append(w.order, vid)
		w.parent[vid] = parent
		if parent == w.head {
			w.head = vid
		}
	}
	return nil
}

func (w *readHot) recent(rng *rand.Rand) int64 {
	n := min(hotRecent, len(w.order))
	return w.order[len(w.order)-1-rng.Intn(n)]
}

func (w *readHot) round(r *run, c *client, _ int, rng *rand.Rand) {
	m := r.model
	half := w.sc.rows / 2
	// Side branch changes the upper half of the keys, the mainline the
	// lower half, so the merge is a true three-way merge without conflicts.
	base, _ := m.content(w.head)
	commit := func(lo int64) int64 {
		w.gen++
		next := withChanges(base, pickPKs(rng, lo, half, w.sc.changes), w.gen)
		vid, err := c.commit(kCommit, hotDataset, []int64{w.head}, next)
		if err == nil {
			err = m.add(vid, []int64{w.head}, next)
		}
		r.tally.note(kCommit, err)
		if err == nil {
			w.order = append(w.order, vid)
			w.parent[vid] = w.head
			r.afterCommit(c)
		}
		return vid
	}
	side := commit(int64(half))
	main := commit(0)
	merged, err := c.merge(m, hotDataset, strconv.FormatInt(main, 10), main, side)
	r.tally.note(kMerge, err)
	if err == nil {
		w.order = append(w.order, merged)
		w.parent[merged] = main
		w.head = merged
		base, _ = m.content(merged)
		w.head = commit(0)
	}
	checkouts := func(n int) {
		for i := 0; i < n; i++ {
			vid := w.recent(rng)
			if rng.Intn(10) == 0 {
				vid = w.order[rng.Intn(len(w.order))]
			}
			r.checkout(c, hotDataset, vid, hotSampleEvery)
		}
	}
	diff := func() {
		v := w.recent(rng)
		r.diff(c, hotDataset, w.parent[v], v)
	}
	checkouts(11)
	diff()
	r.query(c, hotDataset, []int64{w.recent(rng)})
	checkouts(10)
	diff()
	r.query(c, hotDataset, []int64{w.recent(rng), w.recent(rng)})
	checkouts(11)
	r.query(c, hotDataset, []int64{w.recent(rng)})
}

func (w *readHot) finish(r *run) error { return r.checkpointAndVerify(hotDataset) }

// ---------------------------------------------------------------------------
// commit-durable: two clients, each committing whole versions of its own key
// range to its own line of history (fsync always) and checking out each head
// it just committed, with periodic merges into the main branch. After the
// timed phase the WAL is detached without a checkpoint, the store is
// dropped, and a fresh open must replay the tail to every acknowledged
// version.

type durable struct {
	sc       scale
	mergeMu  sync.Mutex
	mainHead int64
	heads    [2]int64
	gens     [2]int64
	keys     [2]int64 // first primary key of each client's range
}

const (
	durDataset     = "dur"
	durShared      = 100 // rows every version shares
	durCkptEvery   = 64
	durSampleEvery = 8
)

func (w *durable) clients() int { return 2 }
func (w *durable) rounds() int  { return w.sc.rounds }

func (w *durable) setup(r *run) error {
	if _, err := r.open(orpheusdb.BackendMemory, 0, orpheusdb.FsyncAlways); err != nil {
		return err
	}
	c := r.setupClient()
	defer c.close()
	if err := initDataset(c, durDataset, "split-by-rlist"); err != nil {
		return err
	}
	shared := rangeContent(0, durShared, 1)
	v1, err := c.commit(kCommit, durDataset, nil, shared)
	if err != nil {
		return err
	}
	if err := r.model.add(v1, nil, shared); err != nil {
		return err
	}
	if _, err := c.call(kCommit, http.MethodPost, "/api/v1/datasets/"+durDataset+"/branches",
		[]byte(`{"name":"main","at":"`+strconv.FormatInt(v1, 10)+`"}`), http.StatusCreated); err != nil {
		return err
	}
	w.mainHead = v1
	for ci := range w.heads {
		w.heads[ci] = v1
		w.keys[ci] = int64(ci+1) * 1_000_000
		rng := rand.New(rand.NewSource(r.cfg.seed*7 + int64(ci)))
		for j := 0; j < w.sc.versions; j++ {
			if err := w.commit(r, c, ci, rng, false); err != nil {
				return err
			}
		}
		if err := w.mergeMain(r, c, ci); err != nil {
			return err
		}
	}
	return nil
}

// commit writes the client's next version: its previous head with a tenth
// of its own keys moved to a new generation (the whole range on the first).
func (w *durable) commit(r *run, c *client, ci int, rng *rand.Rand, timed bool) error {
	head := w.heads[ci]
	prev, err := r.model.content(head)
	if err != nil {
		return err
	}
	w.gens[ci]++
	pks := pickPKs(rng, w.keys[ci], w.sc.rows, w.sc.changes)
	if w.gens[ci] == 1 {
		pks = pickPKs(rng, w.keys[ci], w.sc.rows, w.sc.rows)
	}
	next := withChanges(prev, pks, w.gens[ci])
	vid, err := c.commit(kCommit, durDataset, []int64{head}, next)
	if err == nil {
		err = r.model.add(vid, []int64{head}, next)
	}
	if err != nil {
		return err
	}
	w.heads[ci] = vid
	if timed {
		r.afterCommit(c)
	}
	return nil
}

func (w *durable) mergeMain(r *run, c *client, ci int) error {
	w.mergeMu.Lock()
	defer w.mergeMu.Unlock()
	v, err := c.merge(r.model, durDataset, "main", w.mainHead, w.heads[ci])
	if err == nil {
		w.mainHead = v
	}
	return err
}

func (w *durable) round(r *run, c *client, ci int, rng *rand.Rand) {
	prev := w.heads[ci]
	for j := 0; j < 4; j++ {
		err := w.commit(r, c, ci, rng, true)
		r.tally.note(kCommit, err)
		if err != nil {
			return
		}
		r.checkout(c, durDataset, w.heads[ci], durSampleEvery)
	}
	r.tally.note(kMerge, w.mergeMain(r, c, ci))
	r.diff(c, durDataset, prev, w.heads[ci])
	w.mergeMu.Lock()
	main := w.mainHead
	w.mergeMu.Unlock()
	r.query(c, durDataset, []int64{main, w.heads[ci]})
}

func (w *durable) finish(r *run) error {
	// Detach the log and drop the store without Close, which would
	// checkpoint; the reopened store must rebuild every acknowledged
	// version from the last periodic checkpoint plus the WAL tail.
	r.svc.stop()
	if err := r.store.CloseWAL(); err != nil {
		return err
	}
	r.store = nil
	store, err := r.open(orpheusdb.BackendMemory, 0, orpheusdb.FsyncAlways)
	if err != nil {
		return fmt.Errorf("reopen after the WAL was detached: %w", err)
	}
	if err := verifyAll(store, durDataset, r.model, r.tally); err != nil {
		return err
	}
	d, err := store.Dataset(durDataset)
	if err != nil {
		return err
	}
	var mainErr error = fmt.Errorf("branch main missing after reopen")
	for _, b := range d.Branches() {
		if b.Name == "main" {
			mainErr = nil
			if int64(b.Head) != w.mainHead {
				mainErr = fmt.Errorf("branch main at %d after reopen, want %d", b.Head, w.mainHead)
			}
		}
	}
	r.tally.note(kVerify, mainErr)
	return r.finalCheckpoint()
}

// ---------------------------------------------------------------------------
// disk-cold: one client on the disk backend and the partitioned model. The
// data is a sliding-window chain — each version drops the oldest keys and
// adds as many new ones — so distinct records far exceed any one version.
// LyreSplit lays it out in setup; the store is then reopened under a page
// budget and a checkout cache far below the data, and checkouts spread
// uniformly over every version, so they fault pages through the pager.

type diskCold struct {
	sc    scale
	order []int64
	start int64 // first key of the chain head's window
}

const (
	coldDataset       = "cold"
	coldGamma         = 2.0
	coldMu            = 1.2
	coldCkptEvery     = 30
	coldMaintainEvery = 30
	coldSampleEvery   = 8
	coldPageBudget    = 256 << 10
	coldCacheBudget   = 512 << 10
)

func (w *diskCold) clients() int { return 1 }
func (w *diskCold) rounds() int  { return w.sc.rounds }

func (w *diskCold) setup(r *run) error {
	if _, err := r.open(orpheusdb.BackendDisk, 0, orpheusdb.FsyncInterval); err != nil {
		return err
	}
	c := r.setupClient()
	if err := initDataset(c, coldDataset, "partitioned-rlist"); err != nil {
		return err
	}
	for len(w.order) < w.sc.versions {
		if err := w.extend(r, c); err != nil {
			return err
		}
	}
	if err := c.postJSON(kMaintain, "/api/v1/datasets/"+coldDataset+"/optimize", map[string]float64{"gamma": coldGamma}, http.StatusOK, nil); err != nil {
		return err
	}
	l, err := c.layout(coldDataset)
	if err != nil {
		return err
	}
	if err := checkLayout(l, true, len(w.order), float64(w.sc.rows)); err != nil {
		return fmt.Errorf("after LyreSplit: %w", err)
	}
	c.close()
	// Reopen cold under the budgets; nothing is resident.
	r.svc.stop()
	if err := r.store.Close(); err != nil {
		return err
	}
	if err := r.store.CloseWAL(); err != nil {
		return err
	}
	store, err := r.open(orpheusdb.BackendDisk, coldPageBudget, orpheusdb.FsyncInterval)
	if err != nil {
		return err
	}
	store.SetCacheBudget(coldCacheBudget)
	return nil
}

// extend commits the next window of the chain.
func (w *diskCold) extend(r *run, c *client) error {
	var parents []int64
	if n := len(w.order); n > 0 {
		parents = []int64{w.order[n-1]}
		w.start += int64(w.sc.changes)
	}
	next := rangeContent(w.start, w.sc.rows, 1)
	vid, err := c.commit(kCommit, coldDataset, parents, next)
	if err == nil {
		err = r.model.add(vid, parents, next)
	}
	if err == nil {
		w.order = append(w.order, vid)
	}
	return err
}

func (w *diskCold) round(r *run, c *client, _ int, rng *rand.Rand) {
	any := func() int64 { return w.order[rng.Intn(len(w.order))] }
	quarter := func() {
		err := w.extend(r, c)
		r.tally.note(kCommit, err)
		if err != nil {
			return
		}
		n := r.afterCommit(c)
		if n%coldMaintainEvery == 0 {
			r.tally.note(kMaintain, w.maintain(c))
		}
		for i := 0; i < 2; i++ {
			r.checkout(c, coldDataset, any(), coldSampleEvery)
		}
	}
	quarter()
	quarter()
	i := rng.Intn(len(w.order) - 1)
	r.diff(c, coldDataset, w.order[i], w.order[i+1])
	quarter()
	quarter()
	r.query(c, coldDataset, []int64{any()})
}

// maintain runs LyreSplit maintenance and checks the layout it leaves.
func (w *diskCold) maintain(c *client) error {
	var res struct {
		Migrated bool `json:"migrated"`
	}
	if err := c.postJSON(kMaintain, "/api/v1/datasets/"+coldDataset+"/optimize", map[string]float64{"gamma": coldGamma, "mu": coldMu}, http.StatusOK, &res); err != nil {
		return err
	}
	if res.Migrated {
		c.migrations++
	}
	rec := c.record
	c.record = false
	l, err := c.layout(coldDataset)
	c.record = rec
	if err != nil {
		return err
	}
	return checkLayout(l, res.Migrated, len(w.order), float64(w.sc.rows))
}

func (w *diskCold) finish(r *run) error {
	// The final pass is not measured: lift the page budget so it does not
	// fault every page once per version.
	r.store.SetPageBudget(orpheusdb.DefaultPageBudget)
	return r.checkpointAndVerify(coldDataset)
}

// ---------------------------------------------------------------------------

func newWorkload(name string, tiny bool, seconds int) (workload, error) {
	// rate is rounds per second on the reference machine (see README), so a
	// run replays a fixed number of rounds that takes about --seconds there.
	rounds := func(rate float64) int {
		if tiny {
			return 3
		}
		return max(1, int(rate*float64(seconds)+0.5))
	}
	switch name {
	case "read-hot":
		sc := scale{rows: 2000, versions: 100, changes: 20, rounds: rounds(8.5)}
		if tiny {
			sc = scale{rows: 200, versions: 12, changes: 5, rounds: sc.rounds}
		}
		return &readHot{sc: sc}, nil
	case "commit-durable":
		sc := scale{rows: 2000, versions: 8, changes: 100, rounds: rounds(6)}
		if tiny {
			sc = scale{rows: 200, versions: 2, changes: 20, rounds: sc.rounds}
		}
		return &durable{sc: sc}, nil
	case "disk-cold":
		sc := scale{rows: 2000, versions: 300, changes: 50, rounds: rounds(5.5)}
		if tiny {
			sc = scale{rows: 300, versions: 20, changes: 20, rounds: sc.rounds}
		}
		return &diskCold{sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want read-hot, commit-durable or disk-cold)", name)
}

var workloadNames = []string{"read-hot", "commit-durable", "disk-cold"}
