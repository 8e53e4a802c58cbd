package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	orpheusdb "orpheusdb"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/server"
)

type opKind int

const (
	kCheckout opKind = iota
	kCommit
	kDiff
	kQuery
	kMerge
	kCheckpoint
	kMaintain
	kVerify // final pass: one acknowledged version re-checked
	numKinds
)

var kindNames = [numKinds]string{"checkout", "commit", "diff", "query", "merge", "checkpoint", "maintain", "verify"}

// sample is one timed HTTP round trip.
type sample struct {
	kind  opKind
	start time.Time
	dur   time.Duration
	trace string
	bytes int
}

// tally counts attempted and failed operations per kind.
type tally struct {
	mu        sync.Mutex
	attempted [numKinds]int
	failed    [numKinds]int
	reported  int
}

func (t *tally) note(k opKind, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted[k]++
	if err != nil {
		t.failed[k]++
		if t.reported < 10 {
			t.reported++
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kindNames[k], err)
		}
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return attempted, failed
}

// service is one store served by server.New on a loopback listener.
type service struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(store *orpheusdb.Store) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  &http.Server{Handler: server.New(store, nil), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *service) stop() {
	_ = s.srv.Close()
	<-s.done
}

// openStore opens (or creates) the store file the way `orpheus serve` does:
// OpenStoreWithOptions, then EnableWAL, with the debounced save pushed past
// the run so checkpoints happen only when the generator asks for them.
func openStore(path string, backend orpheusdb.BackendKind, pageBudget int64, policy orpheusdb.FsyncPolicy) (*orpheusdb.Store, error) {
	store, err := orpheusdb.OpenStoreWithOptions(path, orpheusdb.StoreOptions{Backend: backend, PageBudgetBytes: pageBudget})
	if err != nil {
		return nil, err
	}
	store.SetSaveDelay(time.Hour)
	if err := store.EnableWAL(orpheusdb.WALConfig{Policy: policy, SyncInterval: 50 * time.Millisecond}); err != nil {
		return nil, fmt.Errorf("enable WAL: %w", err)
	}
	return store, nil
}

// spanCollector keeps every finished request trace, keyed by trace id. It is
// installed as the tracer's OnSlow hook with the slow threshold at 0, and
// only in traced runs.
type spanCollector struct {
	mu     sync.Mutex
	traces map[string]obs.TraceData
}

func installCollector(store *orpheusdb.Store) *spanCollector {
	c := &spanCollector{traces: map[string]obs.TraceData{}}
	tr := store.Tracer()
	tr.OnSlow = func(td obs.TraceData) {
		c.mu.Lock()
		c.traces[td.ID] = td
		c.mu.Unlock()
	}
	tr.SetSlowThreshold(0)
	return c
}

func (c *spanCollector) get(id string) (obs.TraceData, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	td, ok := c.traces[id]
	return td, ok
}

// client is one closed-loop HTTP client: it sends its next request only
// after the previous answer has been read in full.
type client struct {
	hc      *http.Client
	base    string
	buf     bytes.Buffer
	body    []byte
	record  bool
	samples []sample

	checkouts  int // checkouts made, for choosing which answers to check
	migrations int // maintenance calls that migrated
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call makes one request and reads the whole answer into c.buf. The round
// trip is recorded as a sample while c.record is set.
func (c *client) call(k opKind, method, path string, body []byte, wantStatus int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if c.record {
		c.samples = append(c.samples, sample{kind: k, start: t0, dur: d, trace: resp.Header.Get("X-Orpheus-Trace"), bytes: c.buf.Len()})
	}
	if rerr != nil {
		return nil, rerr
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf.String())
	}
	return c.buf.Bytes(), nil
}

func (c *client) postJSON(k opKind, path string, v any, wantStatus int, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.call(k, http.MethodPost, path, body, wantStatus)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

// commit posts the full content of a new version and returns its id.
func (c *client) commit(k opKind, ds string, parents []int64, content []rec) (int64, error) {
	b := append(c.body[:0], `{"message":"perfbench","parents":[`...)
	for i, p := range parents {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, p, 10)
	}
	b = append(b, `],"rows":[`...)
	for i, r := range content {
		if i > 0 {
			b = append(b, ',')
		}
		b = r.appendJSON(b)
	}
	b = append(b, "]}"...)
	c.body = b
	resp, err := c.call(k, http.MethodPost, "/api/v1/datasets/"+ds+"/commit", b, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var out struct {
		Version int64 `json:"version"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, err
	}
	if out.Version <= 0 {
		return 0, fmt.Errorf("commit acknowledged with version %d", out.Version)
	}
	return out.Version, nil
}

// checkout fetches vid; when check is set the rows are compared with want.
func (c *client) checkout(ds string, vid int64, want []rec, check bool) error {
	resp, err := c.call(kCheckout, http.MethodGet, "/api/v1/datasets/"+ds+"/checkout?versions="+strconv.FormatInt(vid, 10), nil, http.StatusOK)
	if err != nil || !check {
		return err
	}
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return err
	}
	if err := checkRows(want, out.Rows); err != nil {
		return fmt.Errorf("checkout of version %d: %w", vid, err)
	}
	return nil
}

func (c *client) diff(ds string, a, b int64, onlyA, onlyB []rec) error {
	resp, err := c.call(kDiff, http.MethodGet, fmt.Sprintf("/api/v1/datasets/%s/diff?a=%d&b=%d", ds, a, b), nil, http.StatusOK)
	if err != nil {
		return err
	}
	var out struct {
		OnlyA [][]any `json:"onlyA"`
		OnlyB [][]any `json:"onlyB"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return err
	}
	if err := checkRows(onlyA, out.OnlyA); err != nil {
		return fmt.Errorf("diff %d %d, only in %d: %w", a, b, a, err)
	}
	if err := checkRows(onlyB, out.OnlyB); err != nil {
		return fmt.Errorf("diff %d %d, only in %d: %w", a, b, b, err)
	}
	return nil
}

// aggregate runs SELECT count(*), sum(val) over a versioned reference and
// compares the answer with the expected count and sum.
func (c *client) aggregate(ds, ref string, count, sum int64) error {
	var out struct {
		Rows [][]any `json:"rows"`
	}
	q := "SELECT count(*), sum(val) FROM VERSION " + ref + " OF CVD " + ds
	if err := c.postJSON(kQuery, "/api/v1/query", map[string]string{"sql": q}, http.StatusOK, &out); err != nil {
		return err
	}
	if len(out.Rows) != 1 || len(out.Rows[0]) != 2 {
		return fmt.Errorf("%s: answer shape %v", q, out.Rows)
	}
	gc, ok1 := out.Rows[0][0].(float64)
	gs, ok2 := out.Rows[0][1].(float64)
	if !ok1 || !ok2 || int64(gc) != count || int64(gs) != sum {
		return fmt.Errorf("%s: got %v, want [%d %d]", q, out.Rows[0], count, sum)
	}
	return nil
}

type mergeAnswer struct {
	Version     int64 `json:"version"`
	Base        int64 `json:"base"`
	UpToDate    bool  `json:"upToDate"`
	FastForward bool  `json:"fastForward"`
}

// merge merges theirs into ours (a version id or a branch name whose head
// the oracle knows as oursVid) and records the result in the model, with
// content from the merge formula over the base the model itself derives.
func (c *client) merge(m *model, ds, ours string, oursVid, theirs int64) (int64, error) {
	base, upToDate, ff, err := m.mergeBase(oursVid, theirs)
	if err != nil {
		return 0, err
	}
	var out mergeAnswer
	req := map[string]string{"ours": ours, "theirs": strconv.FormatInt(theirs, 10)}
	if err := c.postJSON(kMerge, "/api/v1/datasets/"+ds+"/merge", req, http.StatusOK, &out); err != nil {
		return 0, err
	}
	switch {
	case upToDate || ff:
		want := oursVid
		if ff {
			want = theirs
		}
		if out.UpToDate != upToDate || out.FastForward != ff || out.Version != want {
			return 0, fmt.Errorf("merge %d into %d: answer %+v, want upToDate=%v fastForward=%v version %d", theirs, oursVid, out, upToDate, ff, want)
		}
		return want, nil
	case out.UpToDate || out.FastForward || out.Base != base:
		return 0, fmt.Errorf("merge %d into %d: answer %+v, want a merge over base %d", theirs, oursVid, out, base)
	}
	bc, err := m.content(base)
	if err != nil {
		return 0, err
	}
	oc, _ := m.content(oursVid)
	tc, _ := m.content(theirs)
	if err := m.add(out.Version, []int64{oursVid, theirs}, mergeFormula(bc, oc, tc)); err != nil {
		return 0, err
	}
	return out.Version, nil
}

// checkpoint forces a checkpoint and returns the store's cumulative
// checkpoint bytes.
func (c *client) checkpoint() (int64, error) {
	var st orpheusdb.WALStatus
	if err := c.postJSON(kCheckpoint, "/api/v1/wal/checkpoint", struct{}{}, http.StatusOK, &st); err != nil {
		return 0, err
	}
	if st.SaveError != "" || st.AppendError != "" {
		return 0, fmt.Errorf("checkpoint reported save error %q, append error %q", st.SaveError, st.AppendError)
	}
	return st.CheckpointBytes, nil
}

// layout is the GET …/partitioning answer the property checks read.
type layout struct {
	Layout struct {
		Partitions []struct {
			Versions int `json:"versions"`
		} `json:"partitions"`
		StorageRecords int64   `json:"storage_records"`
		CheckoutCost   float64 `json:"avg_checkout_records"`
		GammaRecords   int64   `json:"gamma_records"`
	} `json:"layout"`
}

func (c *client) layout(ds string) (*layout, error) {
	resp, err := c.call(kMaintain, http.MethodGet, "/api/v1/datasets/"+ds+"/partitioning", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var out layout
	return &out, json.Unmarshal(resp, &out)
}

// checkLayout asserts what LyreSplit must guarantee of any layout it leaves:
// after a migration the stored records stay within the γ budget (exact on a
// chain), every version sits in exactly one partition, and no version can
// be checked out by reading fewer records than it holds.
func checkLayout(l *layout, migrated bool, versions int, meanVersionRecords float64) error {
	st := &l.Layout
	if migrated && st.StorageRecords > st.GammaRecords {
		return fmt.Errorf("layout stores %d records, over the γ budget of %d", st.StorageRecords, st.GammaRecords)
	}
	n := 0
	for _, p := range st.Partitions {
		n += p.Versions
	}
	if n != versions {
		return fmt.Errorf("partitions hold %d versions, want %d", n, versions)
	}
	if st.CheckoutCost < meanVersionRecords {
		return fmt.Errorf("average checkout reads %.1f records, below the mean version size %.1f", st.CheckoutCost, meanVersionRecords)
	}
	return nil
}

// checkStored compares rows read through the Go API with the expected records.
func checkStored(want []rec, rows []orpheusdb.Row) error {
	got := make([][]any, len(rows))
	for i, r := range rows {
		if len(r) != 4 {
			return fmt.Errorf("row has %d columns, want 4", len(r))
		}
		got[i] = []any{float64(r[0].I), float64(r[1].I), float64(r[2].I), r[3].S}
	}
	return checkRows(want, got)
}

// verifyAll re-checks every version the model holds through the store's
// own checkout path.
func verifyAll(store *orpheusdb.Store, ds string, m *model, t *tally) error {
	d, err := store.Dataset(ds)
	if err != nil {
		return err
	}
	for _, vid := range m.vids() {
		want, err := m.content(vid)
		if err == nil {
			var rows []orpheusdb.Row
			if rows, err = d.Checkout(orpheusdb.VersionID(vid)); err == nil {
				err = checkStored(want, rows)
			}
			if err != nil {
				err = fmt.Errorf("version %d: %w", vid, err)
			}
		}
		t.note(kVerify, err)
	}
	return nil
}

// storeBytes is the store file plus every file of its WAL directory.
func storeBytes(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	total := fi.Size()
	entries, err := os.ReadDir(path + ".wal")
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func fileBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func storePath(dir string) string { return filepath.Join(dir, "store.odb") }
