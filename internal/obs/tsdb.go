package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the sim-time TSDB: fixed-memory ring series with
// multi-resolution downsampling and hierarchical server→row→site rollups.
//
// Each series owns one ring per resolution (raw telemetry tick plus a
// configurable set of coarser windows, 10s/1m/15m by default). Every ring
// holds a fixed number of buckets {start, min, mean, max, last}; when a
// ring wraps, the oldest bucket is evicted. Memory is therefore a function
// of series count and ring capacity only — a 7-day run retains exactly as
// many bytes as a 1-hour run, which is what makes multi-day 10k-GPU
// simulations observable without unbounded JSONL dumps.
//
// Rollups are incremental: a child series registered with WithParent
// pushes each observation into a per-parent accumulator, and the parent's
// own ring ingests the aggregated value when simulated time advances past
// the accumulation step. Row power is the sum of its servers' power, site
// power the sum of its rows, cap MHz the max across servers — computed at
// ingest, never by re-scanning children.
//
// Everything on the ingest path is allocation-free after registration
// (asserted by TestTSDBIngestSteadyStateZeroAlloc and tracked by
// BenchmarkTSDBIngest in the CI trajectory); the db-level mutex exists
// only so a live /metrics scrape can read while the sim goroutine writes.

// Level places a series in the power-delivery hierarchy. Exports carry it
// as a `level` label, and the Perfetto export groups counter tracks by it.
type Level uint8

const (
	LevelServer Level = iota
	LevelRow
	LevelSite
)

// String returns the level's wire name.
func (l Level) String() string {
	switch l {
	case LevelServer:
		return "server"
	case LevelRow:
		return "row"
	case LevelSite:
		return "site"
	}
	return "unknown"
}

// Agg selects how a parent series combines its children's observations
// within one accumulation step.
type Agg uint8

const (
	// AggSum adds children (power, queue depth, request counts).
	AggSum Agg = iota
	// AggMax keeps the children's max (cap MHz, KV occupancy).
	AggMax
)

// Bucket is one downsampled window: min/mean/max over the samples it
// absorbed, plus the last sample (the value a scrape at bucket end would
// have seen — for cumulative counters this is the cumulative total).
type Bucket struct {
	Start time.Duration // window start, simulated time
	Min   float64
	Max   float64
	Sum   float64
	Last  float64
	Count int64
}

// Mean returns the bucket's average sample value.
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// end returns the exclusive end of the bucket's window.
func (b Bucket) end(window time.Duration) time.Duration { return b.Start + window }

// ring is one fixed-capacity resolution of a series. Sealed buckets live
// in buf as a circular buffer ordered oldest→newest; cur is the open
// bucket still absorbing samples.
type ring struct {
	window time.Duration
	buf    []Bucket
	head   int // index of oldest sealed bucket
	n      int // sealed bucket count
	cur    Bucket
	open   bool
}

func (rg *ring) bucketStart(t time.Duration) time.Duration {
	return t - (t % rg.window)
}

// observe absorbs one sample. Samples must arrive in non-decreasing time
// order (the sim is single-threaded per run, so they do).
func (rg *ring) observe(t time.Duration, v float64) {
	start := rg.bucketStart(t)
	if rg.open && start != rg.cur.Start {
		rg.seal()
	}
	if !rg.open {
		rg.cur = Bucket{Start: start, Min: v, Max: v, Sum: v, Last: v, Count: 1}
		rg.open = true
		return
	}
	if v < rg.cur.Min {
		rg.cur.Min = v
	}
	if v > rg.cur.Max {
		rg.cur.Max = v
	}
	rg.cur.Sum += v
	rg.cur.Last = v
	rg.cur.Count++
}

// seal closes the open bucket, evicting the oldest sealed bucket if the
// ring is full.
func (rg *ring) seal() {
	if !rg.open {
		return
	}
	if rg.n == len(rg.buf) {
		rg.buf[rg.head] = rg.cur
		rg.head = (rg.head + 1) % len(rg.buf)
	} else {
		rg.buf[(rg.head+rg.n)%len(rg.buf)] = rg.cur
		rg.n++
	}
	rg.open = false
}

// sealed returns the i-th sealed bucket, oldest first.
func (rg *ring) sealed(i int) Bucket {
	return rg.buf[(rg.head+i)%len(rg.buf)]
}

// at returns the bucket covering simulated time t, if retained.
func (rg *ring) at(t time.Duration) (Bucket, bool) {
	if rg.open && t >= rg.cur.Start {
		if t < rg.cur.end(rg.window) {
			return rg.cur, true
		}
		return Bucket{}, false
	}
	lo, hi := 0, rg.n
	for lo < hi {
		mid := (lo + hi) / 2
		if rg.sealed(mid).end(rg.window) <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < rg.n {
		if b := rg.sealed(lo); t >= b.Start {
			return b, true
		}
	}
	return Bucket{}, false
}

// TSDBConfig sizes a TSDB. Zero fields take defaults.
type TSDBConfig struct {
	// Step is the raw resolution — normally the row telemetry interval.
	// Default 2s.
	Step time.Duration
	// Windows are the coarser rollup resolutions, ascending. Default
	// 10s, 1m, 15m.
	Windows []time.Duration
	// Capacity is the default bucket count per ring. Default 360 (12
	// minutes of raw, 1h of 10s, 6h of 1m, 90h of 15m).
	Capacity int
}

func (c TSDBConfig) withDefaults() TSDBConfig {
	if c.Step <= 0 {
		c.Step = 2 * time.Second
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{10 * time.Second, time.Minute, 15 * time.Minute}
	}
	if c.Capacity <= 0 {
		c.Capacity = 360
	}
	return c
}

// TSDB is a fixed-memory sim-time time-series database. Series are
// registered once (allocating), then observed allocation-free. The mutex
// serializes the sim goroutine's writes against live /metrics scrapes; a
// nil *TSDB disables everything.
type TSDB struct {
	mu     sync.Mutex
	cfg    TSDBConfig
	series []*TSSeries
	byName map[string]*TSSeries
}

// NewTSDB returns an empty TSDB.
func NewTSDB(cfg TSDBConfig) *TSDB {
	return &TSDB{cfg: cfg.withDefaults(), byName: map[string]*TSSeries{}}
}

// Step returns the raw resolution.
func (db *TSDB) Step() time.Duration {
	if db == nil {
		return 0
	}
	return db.cfg.Step
}

// Windows returns the configured rollup resolutions (shared slice; do not
// mutate).
func (db *TSDB) Windows() []time.Duration {
	if db == nil {
		return nil
	}
	return db.cfg.Windows
}

// SeriesOpt configures a series at registration.
type SeriesOpt func(*TSSeries)

// WithParent links the series under parent with the given aggregation:
// each observation feeds the parent's accumulator, and the parent ingests
// the aggregate when time advances. All children of one parent must share
// the parent's aggregation (the first child's Agg wins).
func WithParent(parent *TSSeries, agg Agg) SeriesOpt {
	return func(s *TSSeries) {
		if parent == nil {
			return
		}
		s.parent = parent
		if parent.children == 0 {
			parent.childAgg = agg
		}
		parent.children++
	}
}

// WithUnit attaches a display unit ("W", "MHz", "frac") carried into the
// Prometheus HELP-style comments and the report.
func WithUnit(unit string) SeriesOpt {
	return func(s *TSSeries) { s.unit = unit }
}

// CounterSeries marks the series cumulative: exports render it as a
// Prometheus counter and DeltaOver/rate() read increments off Last values.
func CounterSeries() SeriesOpt {
	return func(s *TSSeries) { s.counter = true }
}

// WithCapacity overrides the per-ring bucket count for this series — the
// cluster registers per-server series with a smaller capacity than
// row/site series so 10k-GPU topologies stay cheap.
func WithCapacity(n int) SeriesOpt {
	return func(s *TSSeries) {
		if n > 0 {
			s.capacity = n
		}
	}
}

// Series registers (or returns the existing) series under name. Names may
// carry Prometheus-style inline labels (`server.power{server="3"}`).
// Options apply only on first registration. Returns nil on a nil TSDB.
func (db *TSDB) Series(name string, level Level, opts ...SeriesOpt) *TSSeries {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s := db.byName[name]; s != nil {
		return s
	}
	s := &TSSeries{db: db, name: name, level: level, capacity: db.cfg.Capacity}
	for _, opt := range opts {
		opt(s)
	}
	s.rings = make([]ring, 1+len(db.cfg.Windows))
	s.rings[0] = ring{window: db.cfg.Step, buf: make([]Bucket, s.capacity)}
	for i, w := range db.cfg.Windows {
		s.rings[1+i] = ring{window: w, buf: make([]Bucket, s.capacity)}
	}
	db.series = append(db.series, s)
	db.byName[name] = s
	return s
}

// Lookup returns the series registered under name, or nil.
func (db *TSDB) Lookup(name string) *TSSeries {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.byName[name]
}

// NumSeries returns the registered series count.
func (db *TSDB) NumSeries() int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.series)
}

// MemoryBytes returns the retained telemetry footprint: ring buffers plus
// per-series bookkeeping. It is a function of the registered series and
// their capacities only — independent of how long the simulation ran —
// which the bounded-memory tests assert directly.
func (db *TSDB) MemoryBytes() int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	const bucketBytes = 56 // unsafe.Sizeof(Bucket{}) on 64-bit
	total := 0
	for _, s := range db.series {
		total += 160 + len(s.name) // struct + name, approximate
		for i := range s.rings {
			total += cap(s.rings[i].buf) * bucketBytes
		}
	}
	return total
}

// Flush propagates pending rollup accumulators and seals nothing else —
// open buckets remain queryable. Children flush before parents would
// naturally, but eviction order does not matter here: flushing in reverse
// registration order pushes pending child aggregates upward (servers are
// registered after their row, rows after the site). Idempotent; call at
// end of run before rendering reports.
func (db *TSDB) Flush() {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := len(db.series) - 1; i >= 0; i-- {
		db.series[i].flushRoll()
	}
}

// Each calls fn for every series in registration order.
func (db *TSDB) Each(fn func(*TSSeries)) {
	if db == nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range db.series {
		fn(s)
	}
}

// TSSeries is one registered signal. Observe/Add are allocation-free and
// must be called with non-decreasing simulated timestamps (the sim run
// loop guarantees this). A nil *TSSeries no-ops, so instrumented code
// needs no conditional plumbing.
type TSSeries struct {
	db       *TSDB
	name     string
	unit     string
	level    Level
	counter  bool
	capacity int

	rings []ring

	// Counter state for Add.
	cum float64

	// Last raw sample.
	lastT   time.Duration
	lastV   float64
	hasLast bool

	// Parent rollup edge and (on parents) the child accumulator.
	parent   *TSSeries
	childAgg Agg
	children int
	rollT    time.Duration
	rollSum  float64
	rollMax  float64
	rollN    int
	rollSet  bool
}

// Name returns the registered series name (with inline labels, if any).
func (s *TSSeries) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Level returns the series' hierarchy level.
func (s *TSSeries) Level() Level {
	if s == nil {
		return LevelServer
	}
	return s.level
}

// Unit returns the display unit ("" when unset).
func (s *TSSeries) Unit() string {
	if s == nil {
		return ""
	}
	return s.unit
}

// IsCounter reports cumulative semantics.
func (s *TSSeries) IsCounter() bool { return s != nil && s.counter }

// Observe records one sample at simulated time t.
func (s *TSSeries) Observe(t time.Duration, v float64) {
	if s == nil {
		return
	}
	s.db.mu.Lock()
	s.observe(t, v)
	s.db.mu.Unlock()
}

// Add increments a cumulative series by delta at simulated time t — the
// event-driven form of a counter (TTFT SLO good/total counts).
func (s *TSSeries) Add(t time.Duration, delta float64) {
	if s == nil {
		return
	}
	s.db.mu.Lock()
	s.cum += delta
	s.observe(t, s.cum)
	s.db.mu.Unlock()
}

// observe runs under db.mu (directly or via a child's locked Observe).
func (s *TSSeries) observe(t time.Duration, v float64) {
	for i := range s.rings {
		s.rings[i].observe(t, v)
	}
	s.lastT, s.lastV, s.hasLast = t, v, true
	if p := s.parent; p != nil {
		p.accumulate(t, v)
	}
}

// accumulate folds one child observation into the parent's pending step.
// When time advances past the current step, the completed aggregate is
// ingested into the parent's own rings first (and recursively upward).
func (s *TSSeries) accumulate(t time.Duration, v float64) {
	step := s.db.cfg.Step
	start := t - (t % step)
	if s.rollSet && start != s.rollT {
		s.flushRoll()
	}
	if !s.rollSet {
		s.rollT, s.rollSum, s.rollMax, s.rollN, s.rollSet = start, v, v, 1, true
		return
	}
	s.rollSum += v
	if v > s.rollMax {
		s.rollMax = v
	}
	s.rollN++
}

// flushRoll ingests the pending child aggregate, if any.
func (s *TSSeries) flushRoll() {
	if !s.rollSet {
		return
	}
	v := s.rollSum
	if s.childAgg == AggMax {
		v = s.rollMax
	}
	t := s.rollT
	s.rollSet = false
	s.observe(t, v)
}

// Last returns the most recent raw sample.
func (s *TSSeries) Last() (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.lastV, s.hasLast
}

// LastTime returns the simulated time of the most recent raw sample.
func (s *TSSeries) LastTime() time.Duration {
	if s == nil {
		return 0
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.lastT
}

// ValueAt returns the series value at simulated time t, read from the
// finest resolution that still retains t (the bucket's last sample). The
// second result is false when t predates every retained bucket.
func (s *TSSeries) ValueAt(t time.Duration) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	return s.valueAt(t)
}

func (s *TSSeries) valueAt(t time.Duration) (float64, bool) {
	for i := range s.rings {
		if b, ok := s.rings[i].at(t); ok {
			return b.Last, true
		}
	}
	return 0, false
}

// DeltaOver returns the increase of a cumulative series over the window
// ending at now. The second result is false when the window start is no
// longer retained (or the series has no data yet) — rate rules stay
// silent rather than guessing.
func (s *TSSeries) DeltaOver(now, window time.Duration) (float64, bool) {
	if s == nil || window <= 0 {
		return 0, false
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if !s.hasLast {
		return 0, false
	}
	prev := now - window
	if prev < 0 {
		return 0, false
	}
	v0, ok := s.valueAt(prev)
	if !ok {
		return 0, false
	}
	return s.lastV - v0, true
}

// Buckets returns a copy of the retained buckets at the given resolution
// (window must be the raw step or one of the configured windows),
// oldest first, including the still-open bucket.
func (s *TSSeries) Buckets(window time.Duration) []Bucket {
	if s == nil {
		return nil
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	for i := range s.rings {
		rg := &s.rings[i]
		if rg.window != window {
			continue
		}
		out := make([]Bucket, 0, rg.n+1)
		for j := 0; j < rg.n; j++ {
			out = append(out, rg.sealed(j))
		}
		if rg.open {
			out = append(out, rg.cur)
		}
		return out
	}
	return nil
}

// tsdbFamily renders a series name as a Prometheus family: dots and
// dashes become underscores, inline labels are preserved.
func tsdbFamily(name string) (fam, labels string) {
	fam = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		fam, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	fam = strings.NewReplacer(".", "_", "-", "_").Replace(fam)
	return fam, labels
}

// WritePrometheus renders every series' latest value in the Prometheus
// text exposition format. Gauge series expose the last raw sample,
// counter series the cumulative total. Each series carries a `level`
// label plus extraLabels (a pre-rendered `k="v"` list, usually the
// observer's policy scope). Output is sorted for determinism.
func (db *TSDB) WritePrometheus(w io.Writer, extraLabels string) error {
	if db == nil {
		return nil
	}
	type row struct {
		fam, name, value string
		counter          bool
	}
	db.mu.Lock()
	rows := make([]row, 0, len(db.series))
	for _, s := range db.series {
		if !s.hasLast {
			continue
		}
		fam, labels := tsdbFamily(s.name)
		all := Label("level", s.level.String())
		if labels != "" {
			all = labels + "," + all
		}
		if extraLabels != "" {
			all += "," + extraLabels
		}
		rows = append(rows, row{
			fam:     fam,
			name:    fam + "{" + all + "}",
			value:   formatFloat(s.lastV),
			counter: s.counter,
		})
	}
	db.mu.Unlock()
	sort.Slice(rows, func(a, b int) bool { return rows[a].name < rows[b].name })
	lastFam := ""
	for _, r := range rows {
		if r.fam != lastFam {
			typ := "gauge"
			if r.counter {
				typ = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", r.fam, typ); err != nil {
				return err
			}
			lastFam = r.fam
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace exports the retained buckets at the given resolution as
// Chrome trace-event counter tracks ("ph":"C") — one process per
// hierarchy level, one counter track per series — loadable in Perfetto
// alongside the event/span trace. Gauge series plot the bucket mean,
// counter series the bucket-end cumulative value.
func (db *TSDB) WriteChromeTrace(w io.Writer, window time.Duration) error {
	if db == nil {
		return nil
	}
	db.Flush()
	var meta, rows []TraceRow
	for _, l := range []Level{LevelSite, LevelRow, LevelServer} {
		meta = append(meta, ProcessName(levelProc(l), "tsdb:"+l.String()))
	}
	db.mu.Lock()
	series := append([]*TSSeries(nil), db.series...)
	db.mu.Unlock()
	for _, s := range series {
		for _, b := range s.Buckets(window) {
			v := b.Mean()
			if s.counter {
				v = b.Last
			}
			rows = append(rows, TraceRow{
				Name: s.name, Ph: "C", TS: b.Start.Microseconds(), Proc: levelProc(s.level),
				Args: `"value":` + formatFloat(v),
			})
		}
	}
	return WriteChromeRows(w, meta, rows)
}

// levelProc is a level's process index in the Chrome trace export, the one
// mapping its metadata and counter rows share: site, row, server, so
// Perfetto lists the processes in hierarchy order (pids 1, 2, 3).
func levelProc(l Level) int32 { return int32(LevelSite - l) }
