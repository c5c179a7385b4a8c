package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/server"
	"vdtuner/internal/vdms"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span one rung up the ladder.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	began time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{began: time.Now()} }

func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.began)), End: int64(end.Sub(t.began))})
	return id
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o666)
}

// request is one traced client call picked for the ladder.
type request struct {
	id, span int64
	batch    int
}

// adopt takes over a traced phase's client spans, giving each its id and
// making that the request id its ladder spans will share, and returns the
// read requests among them.
func (t *tracer) adopt(p *phase) []request {
	var reqs []request
	take := func(l *callLog, read bool) {
		for i, sp := range l.spans {
			sp.ID = int64(len(t.spans) + 1)
			sp.Req = sp.ID
			t.spans = append(t.spans, sp)
			if read {
				reqs = append(reqs, request{id: sp.Req, span: sp.ID, batch: int(l.batch[l.spanCall[i]])})
			}
		}
	}
	for _, l := range p.readers {
		take(l, true)
	}
	if p.writer != nil {
		take(p.writer, false)
	}
	return reqs
}

// rung is one layer of the ladder: what each sampled request took there,
// in microseconds, and the span it left.
type rung struct {
	us    []float64
	spans []int64
}

// step names one rung of a ladder and the call that is its layer.
type step struct {
	name string
	fn   func(batch int) error
}

// climbChunk is how many requests go down one rung before the same
// requests go down the next.
const climbChunk = 16

// climb replays the sampled requests, one call at a time, down the steps:
// a chunk of requests through the first step, the same chunk through the
// second, and so on, then the next chunk. A call thus follows a call of
// its own rung on another batch, as in steady traffic (going down all
// rungs request by request would hand each rung the caches its parent
// just warmed with the same batch), while the rungs of one request are
// still measured within a fraction of a second of each other, so their
// differences are paired against the box's drift. A rung's span hangs
// under the same request's span one rung up (the client span for the
// first rung). The first chunk is replayed once unrecorded, as warm-up.
func (r *run) climb(reqs []request, steps ...step) ([]*rung, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: no request to replay", steps[0].name)
	}
	rungs := make([]*rung, len(steps))
	for i := range rungs {
		rungs[i] = &rung{us: make([]float64, len(reqs)), spans: make([]int64, len(reqs))}
	}
	call := func(st step, q request) (t0, t1 time.Time, err error) {
		t0 = time.Now()
		if err = st.fn(q.batch); err != nil {
			err = fmt.Errorf("%s: %w", st.name, err)
		}
		return t0, time.Now(), err
	}
	for _, st := range steps {
		for _, q := range reqs[:min(climbChunk, len(reqs))] {
			if _, _, err := call(st, q); err != nil {
				return nil, err
			}
		}
	}
	for lo := 0; lo < len(reqs); lo += climbChunk {
		for si, st := range steps {
			for i := lo; i < min(lo+climbChunk, len(reqs)); i++ {
				q := reqs[i]
				t0, t1, err := call(st, q)
				if err != nil {
					return nil, err
				}
				up := q.span
				if si > 0 {
					up = rungs[si-1].spans[i]
				}
				rungs[si].spans[i] = r.tr.add(up, q.id, st.name, t0, t1)
				rungs[si].us[i] = float64(t1.Sub(t0)) / 1e3
			}
		}
	}
	return rungs, nil
}

// self is a layer's own time: per request, its span minus its child's.
func self(layer, child *rung) []float64 {
	out := make([]float64, len(layer.us))
	for i := range out {
		out[i] = layer.us[i] - child.us[i]
	}
	return out
}

func (r *run) setRung(name string, v []float64) {
	r.res.set(name, "us", len(v), median(v))
}

// traceServing is the traced run of a serving workload: one set-up, the
// timed phase with every other client call recorded as a span, then the
// layer ladders and the layer probes.
func (r *run) traceServing(s *servingSpec, c *corpus) error {
	d, err := r.deploy(s, c, 0)
	if err != nil {
		return err
	}
	defer d.shutdown()
	r.res.set("vdms.flush_ms", "ms", 0, d.flushS*1e3)
	r.res.set("ingest_rows_per_s", "rows/s", s.n, float64(s.n)/d.ingestS)

	p := r.serve(d, c, r.seconds, traced)
	if err := r.reportReads(s, p); err != nil {
		return err
	}
	r.res.set("trace_overhead_share", "ratio", 0, p.traceOverhead())
	r.res.set("failed_share", "ratio", int(r.attempted.Load()), float64(r.failed.Load())/float64(r.attempted.Load()))
	reqs := r.tr.adopt(p)

	// A fixed, seed-chosen sample of the traced requests.
	rand.New(rand.NewSource(r.seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	reqs = reqs[:min(r.ladder(), len(reqs))]
	slices.SortFunc(reqs, func(a, b request) int { return cmp.Compare(a.id, b.id) })

	target := &ladderTarget{coll: d.coll, srv: d.srv, rows: c.ds.Vectors[:s.n], ids: d.led.ids, cfg: s.cfg}
	if s.writeRate > 0 {
		if err := r.finishWrites(d, c, p); err != nil {
			return err
		}
	} else {
		r.backgroundWork(d, p)
	}
	d.closeConns() // the ladders' client is alone on the wire
	if s.writeRate > 0 {
		if err := r.writeLadder(s, c); err != nil {
			return err
		}
		// The served collection is mid-churn and sharded; the read ladder
		// runs on a quiet one-shard collection of the final live rows.
		if target, _, err = r.quietTwin(s, c, d.led.vecs[d.led.head:], 1); err != nil {
			return err
		}
		defer target.close()
	}
	if err := r.readLadder(s, c, target, reqs); err != nil {
		return err
	}
	return r.layerProbes(s, c, target, reqs)
}

// ladderTarget is a quiet, one-shard, memory-only collection whose sealed
// segments the harness can rebuild: rows went in in id order and were
// sealed every sealRows rows.
type ladderTarget struct {
	coll *vdms.Collection
	srv  *server.Server
	rows [][]float32
	ids  []int64
	cfg  vdms.Config
	own  bool
}

func (t *ladderTarget) close() {
	if t.own {
		t.srv.Close()
		t.coll.Close()
	}
}

// quietTwin loads rows into a fresh memory-only collection of the
// workload's configuration at the given shard count and serves it. It
// also returns what each ingestRows-row Insert call took in process.
func (r *run) quietTwin(s *servingSpec, c *corpus, rows [][]float32, shards int) (*ladderTarget, []float64, error) {
	cfg := s.cfg
	cfg.ShardCount = shards
	coll, err := vdms.NewCollection(cfg, c.ds.Metric, c.ds.Dim, len(rows))
	if err != nil {
		return nil, nil, err
	}
	t := &ladderTarget{coll: coll, rows: rows, cfg: cfg, own: true}
	var insertUs []float64
	for lo := 0; lo < len(rows) && err == nil; lo += ingestRows {
		t0 := time.Now()
		var ids []int64
		ids, err = coll.Insert(rows[lo:min(lo+ingestRows, len(rows))])
		insertUs = append(insertUs, float64(time.Since(t0))/1e3)
		t.ids = append(t.ids, ids...)
	}
	if err == nil {
		err = coll.Flush()
	}
	if err == nil {
		t.srv, err = server.New(coll, "127.0.0.1:0")
	}
	if err != nil {
		coll.Close()
		return nil, nil, err
	}
	return t, insertUs, nil
}

// searchInProcess is the vdms rung: the same batch through the
// collection's exported search, work counts included.
func searchInProcess(coll *vdms.Collection, b [][]float32, k int, st *index.Stats) error {
	var err error
	if len(b) == 1 {
		_, err = coll.Search(b[0], k, st)
	} else {
		_, err = coll.SearchBatch(b, k, st)
	}
	return err
}

// readLadder replays the sampled requests down server.call, vdms.search,
// index.search and linalg.scan.
func (r *run) readLadder(s *servingSpec, c *corpus, t *ladderTarget, reqs []request) error {
	mir, err := r.buildMirror(t, c)
	if err != nil {
		return err
	}
	// What one query costs the index, to size the kernel rung: counted over
	// the whole query set, so that the counts repeat exactly for a seed
	// whichever requests the run happened to sample.
	var probe index.Stats
	for _, b := range c.batches {
		mir.search(b, s.k, &probe, nil)
	}
	queries := float64(len(c.batches) * s.batch)
	kern := newKernelScan(c, int(float64(probe.DistComps)/queries), int(float64(probe.CodeComps)/queries), s.k)

	cn, err := r.dial(t.srv.Addr(), s.codec)
	if err != nil {
		return err
	}
	defer cn.close()
	alt, err := r.dial(t.srv.Addr(), s.codec.other())
	if err != nil {
		return err
	}
	defer alt.close()
	var collWork, work index.Stats
	rungs, err := r.climb(reqs,
		step{"server.call", func(b int) error {
			_, err := cn.search(c.batches[b], s.k)
			return err
		}},
		step{"vdms.search", func(b int) error { return searchInProcess(t.coll, c.batches[b], s.k, &collWork) }},
		step{"index.search", func(b int) error {
			mir.search(c.batches[b], s.k, &work, nil)
			return nil
		}},
		step{"linalg.scan", func(b int) error {
			kern.scan(c.batches[b])
			return nil
		}})
	if err != nil {
		return err
	}
	call, search, idx, scan := rungs[0], rungs[1], rungs[2], rungs[3]
	// Both counts include the warm-up requests. The index rung is a fair
	// child of vdms.search only if it did the collection's work.
	if !within(work.DistComps, collWork.DistComps, 0.02) || !within(work.CodeComps, collWork.CodeComps, 0.02) || !within(work.Lookups, collWork.Lookups, 0.02) {
		r.problem("index rung did %+v, the collection %+v for the same batches", work, collWork)
	}
	// Beside the ladder: the same requests through the other codec, and
	// the round trip with no work in it.
	side, err := r.climb(reqs,
		step{"server.call." + s.codec.other().String(), func(b int) error {
			_, err := alt.search(c.batches[b], s.k)
			return err
		}})
	if err != nil {
		return err
	}
	pings, err := r.climb(reqs, step{"server.ping", func(int) error { return cn.ping() }})
	if err != nil {
		return err
	}

	r.setRung("server.call_us", call.us)
	r.setRung("server.ping_us", pings[0].us)
	r.setRung("server.other_codec_call_us", side[0].us)
	r.setRung("server.self_us", self(call, search))
	r.setRung("vdms.search_us", search.us)
	r.setRung("vdms.self_us", self(search, idx))
	r.setRung("index.search_us", idx.us)
	r.setRung("index.self_us", self(idx, scan))
	r.setRung("linalg.scan_us", scan.us)
	r.res.set("index.build_ms", "ms", len(mir.segs), mir.buildS*1e3)
	r.res.set("index.mem_bytes_per_row", "bytes", 0, float64(mir.memBytes)/float64(len(t.rows)))
	r.res.set("index.dist_comps_per_query", "count", 0, float64(probe.DistComps)/queries)
	r.res.set("index.code_comps_per_query", "count", 0, float64(probe.CodeComps)/queries)
	r.res.set("index.lookups_per_query", "count", 0, float64(probe.Lookups)/queries)
	gbps := kern.bytesPerCall(s.batch) / (median(scan.us) * 1e3)
	r.res.set("linalg.scan_gbps", "GB/s", len(scan.us), gbps)
	stream := streamTriadGBps()
	r.res.set("linalg.stream_gbps", "GB/s", 5, stream)
	r.res.set("linalg.roofline_share", "ratio", 0, gbps/stream)
	return nil
}

func within(a, b int64, tol float64) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= tol*float64(max(a, b))
}

// mirror is the harness's rebuild of a ladder target's sealed segments:
// the same contiguous row slices, the same sequence-derived build seeds.
type mirror struct {
	segs     []index.Index
	tiles    []mirrorTile
	cfg      vdms.Config
	buildS   float64
	memBytes int64
}

// mirrorTile is one worker's reusable search state.
type mirrorTile struct {
	tops []*linalg.TopK
	out  []linalg.Neighbor
	work index.Stats
}

// sealRows is how many rows a one-shard collection of cfg expecting n rows
// seals into one segment (vdms: sealRowsFor).
func sealRows(cfg vdms.Config, n int) int {
	return max(48, int(cfg.SegmentMaxSize*cfg.SealProportion*float64(n)/512))
}

// buildMirror builds one index per sealRows-row slice of the target's
// rows, with the seed the collection's seal path derives from the
// segment's sequence number (vdms: newSegmentIndex).
func (r *run) buildMirror(t *ladderTarget, c *corpus) (*mirror, error) {
	cfg := t.cfg
	sealRows := sealRows(cfg, len(t.rows))
	m := &mirror{cfg: cfg}
	t0 := time.Now()
	for seq, lo := 0, 0; lo < len(t.rows); seq, lo = seq+1, lo+sealRows {
		hi := min(lo+sealRows, len(t.rows))
		bp := cfg.Build
		bp.Seed += int64(seq) * 7919
		bp.Workers = cfg.Parallelism
		idx, err := index.New(cfg.IndexType, c.ds.Metric, c.ds.Dim, bp)
		if err != nil {
			return nil, err
		}
		store := linalg.MatrixFromRows(t.rows[lo:hi])
		if err := idx.Build(store, t.ids[lo:hi]); err != nil {
			return nil, err
		}
		m.segs = append(m.segs, idx)
		m.memBytes += idx.MemoryBytes()
		if !idx.StoreAdopted() {
			m.memBytes += store.Bytes()
		}
	}
	m.buildS = time.Since(t0).Seconds()
	return m, nil
}

// tiles cuts a batch of n queries into equal tiles, one per worker of the
// harness.
func tiles(n int) (count, per int) {
	count = min(clients, n)
	return count, (n + count - 1) / count
}

// search is the index rung: the batch in equal query tiles over the
// harness's worker count, each tile through every segment in sequence
// order into one collector per query, results extracted — what a caller
// of the index package does with the cores the collection has. With out
// set, out[i] receives query i's neighbours.
func (m *mirror) search(b [][]float32, k int, st *index.Stats, out [][]linalg.Neighbor) {
	count, per := tiles(len(b))
	for len(m.tiles) < count {
		m.tiles = append(m.tiles, mirrorTile{})
	}
	parallel.WorkerParallel(count, count, func(_, ti int) {
		t := &m.tiles[ti]
		lo := ti * per
		qs := b[lo:min(lo+per, len(b))]
		for len(t.tops) < len(qs) {
			t.tops = append(t.tops, linalg.NewTopK(k))
		}
		tops := t.tops[:len(qs)]
		for _, top := range tops {
			top.Reset(k)
		}
		t.work = index.Stats{}
		for _, seg := range m.segs {
			if len(qs) == 1 {
				seg.SearchInto(qs[0], k, m.cfg.Search, &t.work, tops[0])
			} else {
				seg.SearchMultiInto(qs, k, m.cfg.Search, &t.work, tops)
			}
		}
		for i, top := range tops {
			t.out = top.AppendResults(t.out[:0])
			if out != nil {
				out[lo+i] = slices.Clone(t.out)
			}
		}
	})
	for i := range m.tiles[:count] {
		st.Add(m.tiles[i].work)
	}
}
