package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
	"vdtuner/internal/workload"
)

// clients is the load generator's whole budget of connections and client
// goroutines. It is the core count of the box the benchmark was sized on
// and is fixed, so a run means the same thing on a bigger machine; dial
// refuses to exceed it.
const clients = 2

const (
	setupRounds = 3   // set-ups per untraced run; setup_s is their median
	reps        = 5   // equal windows the timed phase is cut into; a read metric is their median
	ingestRows  = 250 // rows per Insert call of the set-up ingest
	writeRows   = 64  // rows per paced write op
	keepFirst   = 64  // wire responses kept for the identity check
	ladderSize  = 256 // traced requests replayed down the layer ladder at full scale
)

// servingSpec is a traffic mix against one served collection.
type servingSpec struct {
	n, nq, k int
	cfg      vdms.Config
	durable  bool
	batch    int   // queries per search call; 1 uses the single-query op
	codec    codec // codec of the timed reader connections
	readers  int   // closed-loop reader connections
	// writeRate, when positive, puts a paced open-loop writer on one more
	// connection: this many ops/s on a fixed schedule, alternating
	// insert-writeRows-new-rows and delete-the-writeRows-oldest.
	writeRate   int
	recallFloor float64
}

// ladder is how many traced requests go down a layer ladder: ladderSize
// at full scale.
func (r *run) ladder() int { return max(16, int(ladderSize*min(r.scale, 1))) }

func (s *servingSpec) pacedOps(seconds float64) int {
	return int(float64(s.writeRate) * seconds)
}

// baseConfig is the engine's stock configuration at the harness's fixed
// worker count.
func baseConfig(t index.Type) vdms.Config {
	cfg := vdms.DefaultConfig()
	cfg.IndexType = t
	cfg.Parallelism = clients
	return cfg
}

func scanSpec(scale float64) *servingSpec {
	cfg := baseConfig(index.IVFFlat)
	cfg.Build.NList, cfg.Search.NProbe = 256, 32
	return &servingSpec{n: scaled(60000, scale, 2000), nq: scaled(512, scale, 64), k: 20, cfg: cfg,
		batch: 32, codec: binaryCodec, readers: clients, recallFloor: 0.95}
}

func pointSpec(scale float64) *servingSpec {
	cfg := baseConfig(index.HNSW)
	cfg.Build.HNSWM, cfg.Build.EfConstruction, cfg.Search.Ef = 16, 100, 24
	cfg.SealProportion = 1
	return &servingSpec{n: scaled(3000, scale, 500), nq: scaled(512, scale, 64), k: 20, cfg: cfg,
		batch: 1, codec: jsonCodec, readers: clients, recallFloor: 0.85}
}

// scaled is n at the given scale, not below floor, and a multiple of four
// so that the stock seal threshold (a quarter of the rows) divides it.
func scaled(n int, scale float64, floor int) int {
	v := max(int(float64(n)*scale), floor)
	return v - v%4
}

// corpus is a workload's generated input: GloVe-like rows (100-d,
// clustered, correlated, unit norm) and queries from the same generator.
// Rows beyond n are the paced writer's pool of new rows.
type corpus struct {
	ds      *workload.Dataset
	n       int
	batches [][][]float32
	// truth[i] is the exact top-k of ds.Queries[i] among the rows the
	// recall pass searches: the ingested rows, or on a writing workload
	// the live rows when the timed phase ended.
	truth [][]int64
}

func (r *run) generate(s *servingSpec, poolRows int) (*corpus, error) {
	t0 := time.Now()
	spec := workload.GloVeLike(1)
	spec.N, spec.NQ, spec.K, spec.Seed = s.n+poolRows, s.nq, s.k, r.seed
	if poolRows > 0 {
		spec.NQ = 1 // truth is taken over the final live set instead
	}
	ds, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	c := &corpus{ds: ds, n: s.n, truth: ds.Truth}
	if poolRows > 0 {
		// Same seed, so the same cluster centres: queries from the
		// distribution of the rows, without exact truth over rows that
		// will never all be live at once.
		spec.N, spec.NQ = 200, s.nq
		qs, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		ds.Queries, c.truth = qs.Queries, nil
	}
	for lo := 0; lo+s.batch <= len(ds.Queries); lo += s.batch {
		c.batches = append(c.batches, ds.Queries[lo:lo+s.batch])
	}
	r.res.set("harness_gen_s", "s", 0, time.Since(t0).Seconds())
	return c, nil
}

// codec selects a wire protocol.
type codec int

const (
	binaryCodec codec = iota
	jsonCodec
)

func (c codec) String() string {
	if c == jsonCodec {
		return "json"
	}
	return "binary"
}

func (c codec) other() codec { return 1 - c }

// conn is one client connection of the load generator.
type conn struct {
	r   *run
	bin *server.BinClient
	js  *server.Client
}

// dial opens a connection, refusing to exceed the client budget.
func (r *run) dial(addr string, c codec) (*conn, error) {
	if n := r.conns.Add(1); n > clients {
		r.conns.Add(-1)
		return nil, fmt.Errorf("load generator asked for connection %d of %d", n, clients)
	}
	cn := &conn{r: r}
	var err error
	if c == jsonCodec {
		cn.js, err = server.Dial(addr)
	} else {
		cn.bin, err = server.DialBinary(addr)
	}
	if err != nil {
		r.conns.Add(-1)
		return nil, err
	}
	return cn, nil
}

func (c *conn) close() {
	if c.bin != nil {
		c.bin.Close()
	} else {
		c.js.Close()
	}
	c.r.conns.Add(-1)
}

// search sends one search call: the single-query op for one query, the
// batch op otherwise.
func (c *conn) search(qs [][]float32, k int) ([][]server.Neighbor, error) {
	if len(qs) == 1 {
		var res []server.Neighbor
		var err error
		if c.bin != nil {
			res, err = c.bin.Search(qs[0], k)
		} else {
			res, err = c.js.Search(qs[0], k)
		}
		return [][]server.Neighbor{res}, err
	}
	if c.bin != nil {
		return c.bin.SearchBatch(qs, k)
	}
	return c.js.SearchBatch(qs, k)
}

func (c *conn) ping() error {
	if c.bin != nil {
		return c.bin.Ping()
	}
	return c.js.Ping()
}

// deployment is one set-up: a collection loaded over the wire, served on
// real TCP, with the timed connections dialled and warm.
type deployment struct {
	spec    *servingSpec
	coll    *vdms.Collection
	srv     *server.Server
	dir     string
	readers []*conn
	writer  *conn
	led     *ledger

	setupS, ingestS, flushS float64
}

// deploy is the program's set-up as a user pays it: create the
// collection, start the server, ingest the corpus in ingestRows-row
// Insert calls on one binary connection, Flush (seal and build every
// index), dial the timed connections and warm them up.
func (r *run) deploy(s *servingSpec, c *corpus, round int) (d *deployment, err error) {
	d = &deployment{spec: s, led: &ledger{}}
	defer func() {
		if err != nil {
			d.shutdown()
		}
	}()
	t0 := time.Now()
	if s.durable {
		d.dir = filepath.Join(r.outDir, fmt.Sprintf("data-%s-%d-%d-%d", r.workload, r.seed, os.Getpid(), round))
		d.coll, err = vdms.OpenDurable(d.dir, s.cfg, c.ds.Metric, c.ds.Dim, s.n)
	} else {
		d.coll, err = vdms.NewCollection(s.cfg, c.ds.Metric, c.ds.Dim, s.n)
	}
	if err != nil {
		return d, err
	}
	if d.srv, err = server.New(d.coll, "127.0.0.1:0"); err != nil {
		return d, err
	}
	// The ingest connection is the writer's later, if the mix has one.
	if d.writer, err = r.dial(d.srv.Addr(), binaryCodec); err != nil {
		return d, err
	}
	tIngest := time.Now()
	for lo := 0; lo < s.n; lo += ingestRows {
		rows := c.ds.Vectors[lo:min(lo+ingestRows, s.n)]
		ids, err := d.writer.bin.Insert(rows)
		r.attempted.Add(1)
		if err != nil {
			r.failed.Add(1)
			return d, fmt.Errorf("ingest: %w", err)
		}
		d.led.acked(ids, rows)
	}
	ctl, err := r.dial(d.srv.Addr(), jsonCodec)
	if err != nil {
		return d, err
	}
	tFlush := time.Now()
	err = ctl.js.Flush()
	ctl.close()
	if err != nil {
		return d, fmt.Errorf("flush: %w", err)
	}
	d.flushS = time.Since(tFlush).Seconds()
	d.ingestS = time.Since(tIngest).Seconds()
	if s.writeRate == 0 {
		d.writer.close()
		d.writer = nil
	}
	for i := 0; i < s.readers; i++ {
		cn, err := r.dial(d.srv.Addr(), s.codec)
		if err != nil {
			return d, err
		}
		d.readers = append(d.readers, cn)
	}
	r.serve(d, c, r.seconds/12, warmUp)
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// closeConns closes the timed connections.
func (d *deployment) closeConns() {
	for _, cn := range d.readers {
		cn.close()
	}
	if d.writer != nil {
		d.writer.close()
	}
	d.readers, d.writer = nil, nil
}

// shutdown stops the deployment the way a crash would (nothing a
// discarded set-up holds is worth a final checkpoint) and removes its
// data directory.
func (d *deployment) shutdown() {
	d.closeConns()
	if d.srv != nil {
		d.srv.Close()
	}
	if d.coll != nil {
		d.coll.Crash()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// callLog is one connection's record of the timed phase: start and
// duration of every call in nanoseconds since the phase began.
type callLog struct {
	start, dur []int64
	batch      []int32 // index into corpus.batches (reader) or op number (writer)
	first      [][][]server.Neighbor
	// In a traced phase: after how many calls the connection's inputs
	// repeat, the traced calls again as spans, and which call each is.
	period   int
	spans    []span
	spanCall []int
}

// tracedCall reports whether call i of the connection is a traced one:
// every other call, the other way round in every other pass over the
// inputs, so that each input is traced as often as not.
func (l *callLog) tracedCall(i int) bool { return (i%l.period+i/l.period)%2 == 0 }

func (l *callLog) add(start, dur time.Duration, batch int) {
	l.start = append(l.start, int64(start))
	l.dur = append(l.dur, int64(dur))
	l.batch = append(l.batch, int32(batch))
}

// trace wraps the call just logged in a span — its name, and its start and
// end on the tracer's clock — if it is one of the traced calls.
func (l *callLog) trace(p *phase, name string) {
	i := len(l.start) - 1
	if p.mode != traced || !l.tracedCall(i) {
		return
	}
	at := int64(p.began.Sub(p.epoch)) + l.start[i]
	l.spans = append(l.spans, span{Name: name, Start: at, End: at + l.dur[i]})
	l.spanCall = append(l.spanCall, i)
}

// serveMode is what a phase is for.
type serveMode int

const (
	warmUp serveMode = iota // readers only, nothing kept
	timed                   // the measured traffic mix
	// traced is the same mix with every other call of each connection also
	// recorded as a span. Neighbouring calls see the same box and the same
	// collection, so the throughput of the traced against the plain ones
	// is the tracing overhead with the drift of both taken out.
	traced
)

// phase is the record of one timed phase.
type phase struct {
	dur     time.Duration
	readers []*callLog
	writer  *callLog
	late    []int64 // per write op: how long after its due time it was sent
	began   time.Time
	mode    serveMode
	epoch   time.Time // the tracer's clock, in a traced phase
}

// serve runs the traffic mix for dur: every reader connection is a closed
// loop (its next call goes out when the previous one returns), walking
// the query batches from its own offset; the writer, if the mix has one,
// follows its fixed schedule and the readers verify that no id comes back
// whose delete was acknowledged before the call.
func (r *run) serve(d *deployment, c *corpus, seconds float64, mode serveMode) *phase {
	s := d.spec
	p := &phase{dur: time.Duration(seconds * float64(time.Second)), mode: mode}
	if mode == traced {
		p.epoch = r.tr.began
	}
	var wg sync.WaitGroup
	p.began = time.Now()
	for i, cn := range d.readers {
		log := &callLog{period: len(c.batches)}
		p.readers = append(p.readers, log)
		wg.Add(1)
		go func(i int, cn *conn) {
			defer wg.Done()
			at := i * len(c.batches) / len(d.readers)
			for {
				start := time.Since(p.began)
				if start >= p.dur {
					return
				}
				bi := at % len(c.batches)
				at++
				floor := d.led.deletedBelow.Load()
				res, err := cn.search(c.batches[bi], s.k)
				log.add(start, time.Since(p.began)-start, bi)
				log.trace(p, "client.search")
				r.attempted.Add(1)
				if err != nil || len(res) != len(c.batches[bi]) {
					r.failed.Add(1)
					continue
				}
				if len(log.first) < keepFirst {
					log.first = append(log.first, res)
				}
				if mode != warmUp {
					for _, ns := range res {
						for _, nb := range ns {
							if nb.ID < floor {
								r.problem("search returned id %d, deleted and acknowledged before the call (ids below %d)", nb.ID, floor)
							}
						}
					}
				}
			}
		}(i, cn)
	}
	if mode != warmUp && d.writer != nil {
		p.writer = &callLog{period: 2} // insert, delete
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.pacedWriter(d, c, p, s.pacedOps(seconds))
		}()
	}
	wg.Wait()
	return p
}

// readStats cuts the phase into reps equal windows (by call start time)
// and returns, for each, queries answered per second and the median, 95th
// and 99th percentile call latency in ms, and the fewest calls any window
// saw.
func (p *phase) readStats(batch int) (qps, p50, p95, p99 []float64, calls int) {
	win := int64(p.dur) / reps
	perWindow := make([][]int64, reps)
	for _, l := range p.readers {
		for i, st := range l.start {
			w := min(int(st/win), reps-1)
			perWindow[w] = append(perWindow[w], l.dur[i])
		}
	}
	calls = len(perWindow[0])
	for _, durs := range perWindow {
		slices.Sort(durs)
		qps = append(qps, float64(len(durs)*batch)/(float64(win)/1e9))
		p50 = append(p50, percentileNs(durs, 0.50, 1e6))
		p95 = append(p95, percentileNs(durs, 0.95, 1e6))
		p99 = append(p99, percentileNs(durs, 0.99, 1e6))
		calls = min(calls, len(durs))
	}
	return qps, p50, p95, p99, calls
}

// traceOverhead is 1 − the throughput of the traced calls ÷ that of the
// plain ones. A call's share of the phase is the time from its start to
// the start of its connection's next call, which is where the cost of
// recording its span falls.
func (p *phase) traceOverhead() float64 {
	var calls, ns [2]float64 // plain, traced
	for _, l := range p.readers {
		for i := 0; i+1 < len(l.start); i++ {
			kind := 0
			if l.tracedCall(i) {
				kind = 1
			}
			calls[kind]++
			ns[kind] += float64(l.start[i+1] - l.start[i])
		}
	}
	return 1 - (calls[1]/ns[1])/(calls[0]/ns[0])
}

// recallPass sends every query batch once over the wire and returns mean
// recall@k against the exact truth.
func (r *run) recallPass(d *deployment, c *corpus) (float64, error) {
	var hit, want int
	for bi, b := range c.batches {
		res, err := d.readers[0].search(b, d.spec.k)
		r.attempted.Add(1)
		if err != nil {
			r.failed.Add(1)
			return 0, fmt.Errorf("recall pass: %w", err)
		}
		for i, ns := range res {
			truth := c.truth[bi*d.spec.batch+i]
			hit += hits(truth, ns, func(nb server.Neighbor) int64 { return nb.ID })
			want += len(truth)
		}
	}
	return float64(hit) / float64(want), nil
}

// hits counts the results whose id is in the exact answer.
func hits[N any](truth []int64, got []N, id func(N) int64) int {
	n := 0
	for _, g := range got {
		if slices.Contains(truth, id(g)) {
			n++
		}
	}
	return n
}

// checkFirstResponses compares the first wire responses of reader 0 with
// in-process searches of the same batches on the same collection: the
// access layer must not change an id or a distance.
func (r *run) checkFirstResponses(d *deployment, c *corpus, p *phase) {
	log := p.readers[0]
	if len(log.first) == 0 {
		r.problem("no wire response to check")
	}
	for i, wire := range log.first {
		b := c.batches[log.batch[i]]
		var local [][]linalg.Neighbor
		var err error
		if len(b) == 1 {
			var one []linalg.Neighbor
			one, err = d.coll.Search(b[0], d.spec.k, nil)
			local = [][]linalg.Neighbor{one}
		} else {
			local, err = d.coll.SearchBatch(b, d.spec.k, nil)
		}
		if err != nil {
			r.problem("in-process search: %v", err)
			return
		}
		for q := range local {
			if len(wire[q]) != len(local[q]) {
				r.problem("response %d query %d: %d neighbours over the wire, %d in process", i, q, len(wire[q]), len(local[q]))
				return
			}
			for j, nb := range local[q] {
				if wire[q][j].ID != nb.ID || wire[q][j].Dist != nb.Dist {
					r.problem("response %d query %d rank %d: wire (%d, %v) != in-process (%d, %v)", i, q, j, wire[q][j].ID, wire[q][j].Dist, nb.ID, nb.Dist)
					return
				}
			}
		}
	}
}

// ledger is the harness's own account of what the collection must hold:
// every acknowledged insert in acknowledgement order, and how many of the
// oldest have been deleted and acknowledged.
type ledger struct {
	ids  []int64
	vecs [][]float32
	head int // ids[:head] are deleted
	pool int // rows of the writer's pool already inserted
	ops  int // paced write ops sent so far
	// deletedBelow: every id below it is deleted and acknowledged. Ids
	// are handed out by one counter to one writer at a time, so they
	// ascend in acknowledgement order and the deleted ids are a prefix.
	deletedBelow atomic.Int64
}

func (l *ledger) acked(ids []int64, rows [][]float32) {
	l.ids = append(l.ids, ids...)
	l.vecs = append(l.vecs, rows...)
}

func (l *ledger) live() int { return len(l.ids) - l.head }

// runServing is the scan and point workloads, and the read side of every
// other one: set up, serve for the timed phase, verify, report.
func (r *run) runServing(s *servingSpec) error {
	c, err := r.generate(s, (s.pacedOps(r.seconds)+1)/2*writeRows)
	if err != nil {
		return err
	}
	return r.runServingOn(s, c, 0)
}

// runServingOn serves the corpus. before is the seconds of program work
// that came ahead of the set-ups and is part of set-up all the same (the
// tuning loop of tune).
func (r *run) runServingOn(s *servingSpec, c *corpus, before float64) error {
	if need := s.readers + min(s.writeRate, 1); need > clients {
		return fmt.Errorf("the mix wants %d client connections, the load generator has %d", need, clients)
	}
	// Every window of the write statistics needs an op.
	if s.writeRate > 0 && s.pacedOps(r.seconds) < reps {
		return fmt.Errorf("-seconds %g is too short: the writer's %d ops/s must fill %d windows", r.seconds, s.writeRate, reps)
	}
	if r.trace {
		return r.traceServing(s, c)
	}
	var d *deployment
	var err error
	var setup, ingest []float64
	for round := 0; round < setupRounds; round++ {
		if d != nil {
			d.shutdown()
		}
		if d, err = r.deploy(s, c, round); err != nil {
			return err
		}
		setup = append(setup, before+d.setupS)
		ingest = append(ingest, float64(s.n)/d.ingestS)
	}
	defer d.shutdown()
	r.res.set("setup_s", "s", 0, setup...)
	r.res.set("ingest_rows_per_s", "rows/s", s.n, ingest...)

	p := r.serve(d, c, r.seconds, timed)
	if err := r.reportReads(s, p); err != nil {
		return err
	}
	if s.writeRate > 0 {
		return r.finishWrites(d, c, p)
	}
	r.checkFirstResponses(d, c, p)
	return r.reportState(d, c)
}

// reportReads reports the read side of a timed phase: throughput and the
// latency percentiles are taken window by window and the median window's
// is reported, so a slow spell of the box costs one window, not the tail
// of the whole phase. The tail reported end to end is the 95th percentile:
// the 99th of a sub-millisecond round trip on this kind of box is
// scheduler noise, and the median of point's two-humped latency flips
// between the humps (README, "Noise"); both are still reported, as layer
// metrics.
func (r *run) reportReads(s *servingSpec, p *phase) error {
	qps, p50, p95, p99, calls := p.readStats(s.batch)
	if calls == 0 {
		return fmt.Errorf("-seconds %g is too short: one of the %d windows saw no call", r.seconds, reps)
	}
	r.res.set("search_qps", "1/s", calls, qps...)
	r.res.set("search_p50_ms", "ms", calls, p50...)
	r.res.set("search_p95_ms", "ms", calls, p95...)
	r.res.set("search_p99_ms", "ms", calls, p99...)
	return nil
}

// reportState measures what the collection holds once the timed phase is
// over: recall against the exact truth and memory against the raw rows.
func (r *run) reportState(d *deployment, c *corpus) error {
	recall, err := r.recallPass(d, c)
	if err != nil {
		return err
	}
	r.res.set("recall", "ratio", len(c.ds.Queries), recall)
	if recall < d.spec.recallFloor {
		r.problem("recall %.4f below the workload's floor %.2f", recall, d.spec.recallFloor)
	}
	st := d.coll.Stats()
	if st.Rows != int64(d.led.live()) {
		r.problem("collection holds %d rows, the ledger %d", st.Rows, d.led.live())
	}
	r.res.set("mem_x_raw", "ratio", 0, float64(st.MemoryBytes)/float64(st.Rows*int64(c.ds.Dim)*4))
	return nil
}
