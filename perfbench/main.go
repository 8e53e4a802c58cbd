// Command perfbench is OrpheusDB's end-to-end benchmark. Each workload runs
// in one process: it opens a store through the constructors `orpheus serve`
// uses, serves it with server.New on a loopback listener, and drives it over
// HTTP with closed-loop clients replaying a seeded sequence of operations.
// Every answer it checks is compared with the generator's own model.
//
//	perfbench --workload read-hot --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	orpheusdb "orpheusdb"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	tiny     bool
	perturb  bool
}

// run is one set-up store, its service and the generator's model of it.
type run struct {
	cfg       config
	traced    bool
	dir       string
	store     *orpheusdb.Store
	svc       *service
	model     *model
	tally     *tally
	collector *spanCollector
	openDur   time.Duration
	ckptEvery int64
	commits   atomic.Int64 // acknowledged commits, shared by the clients

	ckptMu    sync.Mutex
	lastCkpt  int64
	ckptBytes []float64

	storedBytes int64 // store file plus WAL after the final checkpoint
	storedFile  int64 // the store file alone
}

// open opens the store file, serves it, and (traced) installs the collector.
func (r *run) open(backend orpheusdb.BackendKind, pageBudget int64, policy orpheusdb.FsyncPolicy) (*orpheusdb.Store, error) {
	t0 := time.Now()
	store, err := openStore(storePath(r.dir), backend, pageBudget, policy)
	if err != nil {
		return nil, err
	}
	r.openDur = time.Since(t0)
	if r.traced {
		r.collector = installCollector(store)
	}
	svc, err := serve(store)
	if err != nil {
		return nil, err
	}
	r.store, r.svc = store, svc
	return store, nil
}

func (r *run) setupClient() *client { return newClient(r.svc.base) }

// afterCommit counts an acknowledged commit and fires the periodic
// checkpoint; it returns the commit's ordinal.
func (r *run) afterCommit(c *client) int64 {
	n := r.commits.Add(1)
	if n%r.ckptEvery == 0 {
		r.tally.note(kCheckpoint, r.checkpoint(c))
	}
	return n
}

func (r *run) checkpoint(c *client) error {
	cum, err := c.checkpoint()
	if err != nil {
		return err
	}
	r.ckptMu.Lock()
	r.ckptBytes = append(r.ckptBytes, float64(cum-r.lastCkpt))
	r.lastCkpt = cum
	r.ckptMu.Unlock()
	return nil
}

func (r *run) checkout(c *client, ds string, vid int64, sampleEvery int) {
	c.checkouts++
	check := c.checkouts%sampleEvery == 0
	var want []rec
	var err error
	if check {
		want, err = r.model.content(vid)
	}
	if err == nil {
		err = c.checkout(ds, vid, want, check)
	}
	r.tally.note(kCheckout, err)
}

func (r *run) diff(c *client, ds string, a, b int64) {
	ca, err := r.model.content(a)
	cb, err2 := r.model.content(b)
	if err == nil {
		err = err2
	}
	if err == nil {
		err = c.diff(ds, a, b, minus(ca, cb), minus(cb, ca))
	}
	r.tally.note(kDiff, err)
}

// query checks count(*) and sum(val) over the intersection of vids.
func (r *run) query(c *client, ds string, vids []int64) {
	var want []rec
	ref := ""
	var err error
	for i, v := range vids {
		cv, cerr := r.model.content(v)
		if cerr != nil {
			err = cerr
		}
		if i == 0 {
			want = cv
		} else {
			want = intersect(want, cv)
			ref += " INTERSECT "
		}
		ref += fmt.Sprint(v)
	}
	if err == nil {
		count, sum := r.model.aggregate(want)
		err = c.aggregate(ds, ref, count, sum)
	}
	r.tally.note(kQuery, err)
}

func (r *run) finalCheckpoint() error {
	if err := r.store.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	n, err := storeBytes(storePath(r.dir))
	r.storedBytes, r.storedFile = n, fileBytes(storePath(r.dir))
	return err
}

func (r *run) checkpointAndVerify(ds string) error {
	r.svc.stop()
	if err := verifyAll(r.store, ds, r.model, r.tally); err != nil {
		return err
	}
	return r.finalCheckpoint()
}

// close releases the store and removes its files.
func (r *run) close() {
	if r.svc != nil {
		r.svc.stop()
	}
	if r.store != nil {
		_ = r.store.Close() // the files are removed next
		_ = r.store.CloseWAL()
	}
	_ = os.RemoveAll(r.dir)
}

// pass is one set-up-and-measure of a workload.
type pass struct {
	setups []float64
	timed  phase
	traced bool
	ckptMB []float64
	openS  float64
	stored int64
	file   int64
	user   int64
	tally  *tally
}

func execute(cfg config, traced bool, setups int) (*pass, error) {
	p := &pass{traced: traced, tally: &tally{}}
	var r *run
	var w workload
	for i := 0; i < setups; i++ {
		var err error
		if w, err = newWorkload(cfg.workload, cfg.tiny, cfg.seconds); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.dir, "run-")
		if err != nil {
			return nil, err
		}
		r = &run{cfg: cfg, traced: traced, dir: dir, model: newModel(), tally: p.tally}
		r.model.perturb = cfg.perturb
		r.ckptEvery = ckptEvery(cfg.workload)
		runtime.GC()
		t0 := time.Now()
		err = w.setup(r)
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		if i < setups-1 {
			r.close()
		}
	}
	defer r.close()
	p.openS = r.openDur.Seconds()
	if err := timedPhase(r, w, &p.timed); err != nil {
		return nil, err
	}
	if err := w.finish(r); err != nil {
		return nil, fmt.Errorf("%s finish: %w", cfg.workload, err)
	}
	p.stored, p.file = r.storedBytes, r.storedFile
	p.user = r.model.distinctUserBytes()
	p.ckptMB = r.ckptBytes
	for i := range p.ckptMB {
		p.ckptMB[i] /= 1 << 20
	}
	return p, nil
}

func ckptEvery(workload string) int64 {
	switch workload {
	case "commit-durable":
		return durCkptEvery
	case "disk-cold":
		return coldCkptEvery
	}
	return hotCkptEvery
}

// phase is what the timed phase measured.
type phase struct {
	wall      time.Duration
	cpu       time.Duration
	ops       int
	samples   []sample
	before    counters
	after     counters
	memLive   float64
	traces    *spanCollector
	layout    [3]float64 // storage records, total records, avg checkout records
	migrating int
	steal     *stealWatch
}

func timedPhase(r *run, w workload, ph *phase) error {
	r.ckptMu.Lock()
	r.lastCkpt = r.store.WALStatus().CheckpointBytes
	r.ckptMu.Unlock()
	clients := make([]*client, w.clients())
	for i := range clients {
		clients[i] = newClient(r.svc.base)
		clients[i].record = true
	}
	a0, _ := r.tally.totals()
	runtime.GC()
	ph.before = readCounters(r)
	ph.steal = watchSteal()
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed*1000 + int64(ci) + 1))
			for i := 0; i < w.rounds(); i++ {
				w.round(r, c, ci, rng)
			}
		}(ci, c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	ph.steal.stop()
	a1, f1 := r.tally.totals()
	ph.ops = a1 - a0 - f1
	ph.after = readCounters(r)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.memLive = float64(ms.HeapAlloc) / (1 << 20)
	for _, c := range clients {
		ph.samples = append(ph.samples, c.samples...)
		ph.migrating += c.migrations
		c.close()
	}
	ph.traces = r.collector
	if d, err := r.store.Dataset(coldDataset); err == nil {
		if st, ok := d.PartitionStatus(); ok {
			ph.layout = [3]float64{float64(st.StorageRecords), float64(st.TotalRecords), st.CheckoutCost}
		}
	}
	return nil
}

func main() {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "read-hot", "workload: read-hot | commit-durable | disk-cold")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 12, "sizes the timed phase: rounds = seconds × the workload's reference rate")
	traceFlag := fs.Int("trace", 0, "1: also run the workload traced and print the per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the run's store files (removed afterwards)")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs (smoke test)")
	fs.BoolVar(&cfg.perturb, "perturb", false, "shift one expected value; the run must then fail")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	_ = fs.Parse(os.Args[1:])
	cfg.trace = *traceFlag == 1
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	res, err := measure(cfg)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fatal(err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
