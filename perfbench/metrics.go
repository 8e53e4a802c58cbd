package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"orpheusdb/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters are the program's own counters, read before and after the timed
// phase.
type counters struct {
	hits, misses, evictions, invalidations int64
	faults, pageEvictions                  int64
	fsyncs, fsyncSeconds, walBytes         float64
	fileBytes                              int64
	totalAlloc                             uint64
	gcCPU, allCPU                          float64
}

func readCounters(r *run) counters {
	cs := r.store.CacheStats()
	st := r.store.DB().Stats()
	c := counters{
		hits: cs.Hits, misses: cs.Misses, evictions: cs.Evictions, invalidations: cs.Invalidations,
		faults: st.PageFaults.Load(), pageEvictions: st.PageEvictions.Load(),
		fileBytes: fileBytes(storePath(r.dir)),
	}
	for _, s := range r.store.Metrics().Samples() {
		switch s.Name {
		case "orpheus_wal_fsync_seconds_count":
			c.fsyncs = s.Value
		case "orpheus_wal_fsync_seconds_sum":
			c.fsyncSeconds = s.Value
		case "orpheus_wal_append_bytes_sum":
			c.walBytes = s.Value
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	rm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(rm)
	if rm[0].Value.Kind() == metrics.KindFloat64 && rm[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.allCPU = rm[0].Value.Float64(), rm[1].Value.Float64()
	}
	return c
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates linearly between the closest ranks of sorted v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (ph *phase) durations(k opKind) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.kind == k {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// calmQuantile is the q-quantile, in ms, of the kind's round trips that
// started in a calm window.
func (ph *phase) calmQuantile(k opKind, q float64) float64 {
	var v []float64
	for _, s := range ph.samples {
		if s.kind == k && ph.steal.calm(s.start) {
			v = append(v, ms(s.dur))
		}
	}
	return quantile(v, q)
}

// calmThroughput is the operations started in calm windows per second of
// calm windows.
func (ph *phase) calmThroughput() float64 {
	n := 0
	for _, s := range ph.samples {
		if ph.steal.calm(s.start) {
			n++
		}
	}
	return ratio(float64(n), ph.steal.calmSeconds())
}

func (ph *phase) count(k opKind) int {
	n := 0
	for _, s := range ph.samples {
		if s.kind == k {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(p *pass) map[string]metric {
	ph := &p.timed
	m := map[string]metric{
		"setup_s":         {median(p.setups), "s"},
		"cpu_ms_per_op":   {ratio(ms(ph.cpu), float64(ph.ops)), "ms"},
		"checkout_p50_ms": {ph.calmQuantile(kCheckout, 0.5), "ms"},
		"commit_p50_ms":   {ph.calmQuantile(kCommit, 0.5), "ms"},
		"diff_p50_ms":     {ph.calmQuantile(kDiff, 0.5), "ms"},
		"query_p50_ms":    {ph.calmQuantile(kQuery, 0.5), "ms"},
		"storage_amp":     {ratio(float64(p.stored), float64(p.user)), "ratio"},
		"mem_live_mb":     {ph.memLive, "MiB"},
	}
	return m
}

// spanTimes is one traced request's time per span name, summed over the
// span's occurrences: total duration and self time (duration minus the part
// its children cover).
type spanTimes struct {
	rootDur, rootSelf float64
	total, self       map[string]float64
}

func analyze(td obs.TraceData) spanTimes {
	st := spanTimes{total: map[string]float64{}, self: map[string]float64{}}
	var walk func(s obs.SpanData) float64
	walk = func(s obs.SpanData) float64 {
		self := float64(s.DurationNanos-covered(s)) / 1e6
		for _, c := range s.Children {
			walk(c)
		}
		st.total[s.Name] += float64(s.DurationNanos) / 1e6
		st.self[s.Name] += self
		return self
	}
	st.rootSelf = walk(td.Root)
	st.rootDur = float64(td.DurationNanos) / 1e6
	return st
}

// covered is the length of the union of s's children's intervals, clipped
// to s.
func covered(s obs.SpanData) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(s.Children))
	end := s.OffsetNanos + s.DurationNanos
	for _, c := range s.Children {
		a, b := max(c.OffsetNanos, s.OffsetNanos), min(c.OffsetNanos+c.DurationNanos, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	for i, x := range ivs {
		if i == 0 || x.a > curB {
			sum += curB - curA
			curA, curB = x.a, x.b
		} else if x.b > curB {
			curB = x.b
		}
	}
	return sum + curB - curA
}

// perLayer computes the traced pass's per-layer metrics; untracedOps is
// the throughput of the untraced pass of the same workload and seed.
func perLayer(p *pass, untracedOps float64) map[string]metric {
	ph := &p.timed
	b, a := ph.before, ph.after
	checkouts := float64(ph.count(kCheckout))
	commits := float64(ph.count(kCommit))
	writes := commits + float64(ph.count(kMerge))
	ops := float64(ph.ops)

	// Per-op span medians: a metric's median runs over the ops of the
	// named kinds (all kinds when none) in which its span occurs.
	spans := map[opKind][]spanTimes{}
	var unattributed []float64
	var respKB []float64
	for _, s := range ph.samples {
		if s.kind == kCheckout {
			respKB = append(respKB, float64(s.bytes)/1024)
		}
		if ph.traces == nil {
			continue
		}
		td, ok := ph.traces.get(s.trace)
		if !ok {
			continue
		}
		st := analyze(td)
		spans[s.kind] = append(spans[s.kind], st)
		unattributed = append(unattributed, ms(s.dur)-st.rootDur)
	}
	spanMedian := func(name string, self bool, kinds ...opKind) float64 {
		if len(kinds) == 0 {
			for k := opKind(0); k < numKinds; k++ {
				kinds = append(kinds, k)
			}
		}
		var v []float64
		for _, k := range kinds {
			for _, st := range spans[k] {
				src := st.total
				if self {
					src = st.self
				}
				if x, ok := src[name]; ok {
					v = append(v, x)
				}
			}
		}
		return median(v)
	}
	rootSelf := func(k opKind) float64 {
		var v []float64
		for _, st := range spans[k] {
			v = append(v, st.rootSelf)
		}
		return median(v)
	}

	faults := float64(a.faults - b.faults)
	lookups := float64(a.hits - b.hits + a.misses - b.misses)
	storage, total, avgCheckout := ph.layout[0], ph.layout[1], ph.layout[2]
	gcShare := ratio(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU)
	tracedOps := float64(ph.ops) / ph.wall.Seconds()

	return map[string]metric{
		"server.checkout_self_ms":        {rootSelf(kCheckout), "ms"},
		"server.commit_self_ms":          {rootSelf(kCommit), "ms"},
		"server.checkout_resp_kb":        {median(respKB), "KiB"},
		"client.unattributed_ms":         {median(unattributed), "ms"},
		"store.checkpoint_ms":            {median(ph.durations(kCheckpoint)), "ms"},
		"store.checkpoint_mb":            {median(p.ckptMB), "MiB"},
		"store.open_s":                   {p.openS, "s"},
		"cache.hit_ratio":                {ratio(float64(a.hits-b.hits), lookups), "ratio"},
		"cache.evictions":                {float64(a.evictions - b.evictions), "count"},
		"cache.invalidations":            {float64(a.invalidations - b.invalidations), "count"},
		"core.cache_lookup_ms":           {spanMedian("checkout.cache", true, kCheckout), "ms"},
		"core.record_fetch_ms":           {spanMedian("record.fetch", false), "ms"},
		"core.commit_match_ms":           {spanMedian("commit.match", false, kCommit), "ms"},
		"core.commit_model_ms":           {spanMedian("commit.model", false, kCommit), "ms"},
		"core.commit_meta_ms":            {spanMedian("commit.meta", false, kCommit), "ms"},
		"bitmap.resolve_ms":              {spanMedian("bitmap.resolve", false), "ms"},
		"engine.faults_per_checkout":     {ratio(faults, checkouts), "count"},
		"engine.evictions_per_fault":     {ratio(float64(a.pageEvictions-b.pageEvictions), faults), "ratio"},
		"diskv.file_mb":                  {float64(a.fileBytes) / (1 << 20), "MiB"},
		"diskv.write_kb_per_commit":      {ratio(float64(a.fileBytes-b.fileBytes)/1024, commits), "KiB"},
		"wal.append_ms":                  {spanMedian("wal.append", false), "ms"},
		"wal.fsync_ms":                   {ratio(a.fsyncSeconds-b.fsyncSeconds, a.fsyncs-b.fsyncs) * 1000, "ms"},
		"wal.fsyncs_per_commit":          {ratio(a.fsyncs-b.fsyncs, writes), "count"},
		"wal.kb_per_commit":              {ratio((a.walBytes-b.walBytes)/1024, writes), "KiB"},
		"sql.parse_ms":                   {spanMedian("sql.parse", false, kQuery), "ms"},
		"sql.execute_ms":                 {spanMedian("sql.execute", false, kQuery), "ms"},
		"merge.lca_ms":                   {spanMedian("merge.lca", false, kMerge), "ms"},
		"merge.formula_ms":               {spanMedian("merge.formula", false, kMerge), "ms"},
		"merge.commit_ms":                {spanMedian("merge.commit", false, kMerge), "ms"},
		"partition.maintain_ms":          {median(ph.durations(kMaintain)), "ms"},
		"partition.migrations":           {float64(ph.migrating), "count"},
		"partition.avg_checkout_records": {avgCheckout, "count"},
		"partition.storage_ratio":        {ratio(storage, total), "ratio"},
		"go.alloc_kb_per_op":             {ratio(float64(a.totalAlloc-b.totalAlloc)/1024, ops), "KiB"},
		"go.gc_cpu_share":                {gcShare, "ratio"},
		"trace.overhead_ratio":           {ratio(untracedOps, tracedOps), "ratio"},
	}
}

// measure runs the workload as configured and assembles the result.
func measure(cfg config) (*result, error) {
	var p, traced *pass
	var err error
	if cfg.trace {
		if p, err = execute(cfg, false, 1); err != nil {
			return nil, err
		}
		if traced, err = execute(cfg, true, 1); err != nil {
			return nil, err
		}
	} else if p, err = execute(cfg, false, 3); err != nil {
		return nil, err
	}
	res := &result{}
	for _, q := range []*pass{p, traced} {
		if q == nil {
			continue
		}
		a, f := q.tally.totals()
		res.Attempted += a
		res.Failed += f
		report(q)
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.Metrics = perLayer(traced, float64(p.timed.ops)/p.timed.wall.Seconds())
	} else {
		res.Metrics = endToEnd(p)
	}
	return res, nil
}

// report prints the pass's per-kind counts and the machine's steal time.
func report(p *pass) {
	t := p.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for k := opKind(0); k < numKinds; k++ {
		if t.attempted[k] > 0 {
			fmt.Fprintf(&b, " %s=%d/%d", kindNames[k], t.failed[k], t.attempted[k])
		}
	}
	mode := "untraced"
	if p.traced {
		mode = "traced"
	}
	ph := &p.timed
	fmt.Printf("%s pass: failed/attempted%s; timed phase %.2fs wall, %.2fs cpu, %.2fs steal (%.2fs in the calm windows); "+
		"calm windows: %.1f ops/s, checkout p95 %.3f ms, commit p95 %.3f ms; setups %v s; stored %d B (store file %d B, WAL %d B) for %d user B\n",
		mode, b.String(), ph.wall.Seconds(), ph.cpu.Seconds(), ph.steal.total(), ph.steal.calmSteal(),
		ph.calmThroughput(), ph.calmQuantile(kCheckout, 0.95), ph.calmQuantile(kCommit, 0.95),
		p.setups, p.stored, p.file, p.stored-p.file, p.user)
}
