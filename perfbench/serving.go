package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"fvcache"
	"fvcache/api"
	"fvcache/client"
	"fvcache/internal/resultcache"
	"fvcache/internal/serve"
	"fvcache/internal/workload"
)

// callers is how many closed-loop clients drive a serving workload:
// one per vCPU of the 2-vCPU reference host, each on its own
// connection, each waiting for its reply before sending again.
const callers = 2

// stack is one in-process fvcached: default serve options over a
// memory-only result cache, on a loopback listener.
type stack struct {
	cache   *resultcache.Cache
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	hc      *http.Client
	clients []*client.Client
}

func startStack() (*stack, error) {
	cache, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		cache:  cache,
		srv:    serve.New(serve.Options{ResultCache: cache}),
		served: make(chan error, 1),
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: callers},
		},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < callers; i++ {
		cli, err := client.New("http://"+ln.Addr().String(), client.Options{HTTPClient: s.hc, NoRetry: true})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cli)
	}
	// Open every caller's connection now, as the timed phase will use
	// them concurrently.
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i, cli := range s.clients {
		wg.Add(1)
		go func(i int, cli *client.Client) {
			defer wg.Done()
			errs[i] = cli.Ready(context.Background())
		}(i, cli)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains the server and waits for its goroutines.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-s.served
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	s.hc.CloseIdleConnections()
}

// reply is what a serving op got back.
type reply struct {
	measure *api.MeasureResponse
	points  []api.MRCPoint
	summary *api.MRCSummary
	err     error
}

// sameAnswer compares the result content of two replies, ignoring how
// the server produced them (batch and trace stanzas).
func sameAnswer(got, want reply) bool {
	if got.err != nil || want.err != nil {
		return false
	}
	if want.measure != nil {
		return got.measure != nil && reflect.DeepEqual(got.measure.Results, want.measure.Results)
	}
	if got.summary == nil || want.summary == nil {
		return false
	}
	g, w := *got.summary, *want.summary
	return reflect.DeepEqual(got.points, want.points) &&
		g.Accesses == w.Accesses && g.Loads == w.Loads && g.Stores == w.Stores &&
		g.DistinctLines == w.DistinctLines && g.Curves == w.Curves && g.Points == w.Points
}

// serving is a closed-loop serving workload: serve_hot or serve_cold.
type serving struct {
	// hot workloads warm every key in setup; cold ones send only
	// configs the server has never seen.
	hot   bool
	scale workload.Scale
	ops   []serveOp
	// warm are the ops setup sends so that the timed ops hit.
	warm []serveOp
	// checked are the ops whose answers verify compares with the
	// in-process engine; every other op only has to succeed.
	checked []int
	// corrupt, when set, alters an expected answer before comparison
	// (tests prove that a wrong answer fails the run).
	corrupt func(want *reply)

	bytesPerAccess float64
	st             *stack
	replies        []reply
	srvBefore      serve.Stats
	srvAfter       serve.Stats
	cacheBefore    resultcache.Stats
	cacheAfter     resultcache.Stats
}

// hotOpsPerSecond sizes serve_hot: the two callers complete about 200
// requests a second, as most requests wait out the 10ms coalescing
// window.
const hotOpsPerSecond = 200

// newServeHot builds serve_hot: a fixed key set at test scale, all
// warmed in setup, so every timed request is a cache hit. Every op is
// checked.
func newServeHot(seed int64, seconds int) *serving {
	names := workloadNames()
	measure, mrc := hotKeys(names)
	s := &serving{
		hot:   true,
		scale: workload.Test,
		ops:   hotOps(seed, hotOpsPerSecond*seconds, names),
		warm:  append(groupByWorkload(measure), mrc...),
	}
	s.checked = make([]int, len(s.ops))
	for i := range s.checked {
		s.checked[i] = i
	}
	return s
}

// coldSecondsPerRound sizes serve_cold: one round (18 workloads × 1–4
// configs, 180 fresh configs) takes about this long on a 2-vCPU host.
const coldSecondsPerRound = 3

// coldChecked is how many serve_cold ops verify replays in process.
const coldChecked = 40

// newServeCold builds serve_cold: every request asks for configs never
// requested before in the run, so each one misses, replays and is
// stored. A seeded sample of ops is checked. Test scale, like
// figures: train-scale runs moved with the host's load several times
// as much.
func newServeCold(seed int64, seconds int) (*serving, error) {
	ops, err := coldOps(seed, max(1, seconds/coldSecondsPerRound), workloadNames())
	if err != nil {
		return nil, err
	}
	return &serving{
		scale:   workload.Test,
		ops:     ops,
		checked: sampleIndices(seed+1, len(ops), coldChecked),
	}, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name())
	}
	return names
}

// groupByWorkload merges single-config measure ops into one request
// per workload, in first-seen order.
func groupByWorkload(ops []serveOp) []serveOp {
	var out []serveOp
	at := map[string]int{}
	for _, op := range ops {
		i, ok := at[op.Workload]
		if !ok {
			i = len(out)
			at[op.Workload] = i
			out = append(out, serveOp{Workload: op.Workload})
		}
		out[i].Configs = append(out[i].Configs, op.Configs...)
	}
	return out
}

// send issues one op through a caller's client.
func (s *serving) send(cli *client.Client, op serveOp) reply {
	ctx := context.Background()
	if op.MRC != nil {
		req := *op.MRC
		req.Workload, req.Scale = op.Workload, s.scale.String()
		var r reply
		r.summary, r.err = cli.MRC(ctx, req, func(p api.MRCPoint) error {
			r.points = append(r.points, p)
			return nil
		})
		return r
	}
	resp, err := cli.Measure(ctx, api.MeasureRequest{Workload: op.Workload, Scale: s.scale.String(), Configs: op.Configs})
	return reply{measure: resp, err: err}
}

func (s *serving) setup(tr *tracer, tid uint64) (err error) {
	if s.bytesPerAccess, err = engineSetup(tr, tid, s.scale); err != nil {
		return err
	}
	start := time.Now()
	if s.st, err = startStack(); err != nil {
		return err
	}
	tr.add("serve.start", "", tid, -1, start, time.Now())
	for _, op := range s.warm {
		var r reply
		tr.time("serve.warm", op.Workload, tid, -1, func() { r = s.send(s.st.clients[0], op) })
		if r.err != nil {
			return fmt.Errorf("warming %s: %w", op.key(), r.err)
		}
	}
	return nil
}

func (s *serving) run(tr *tracer) []sample {
	s.replies = make([]reply, len(s.ops))
	samples := make([]sample, len(s.ops))
	s.srvBefore, s.cacheBefore = s.st.srv.ServerStats(), s.st.cache.Stats()
	var wg sync.WaitGroup
	for c, cli := range s.st.clients {
		wg.Add(1)
		go func(c int, cli *client.Client) {
			defer wg.Done()
			for i := c; i < len(s.ops); i += callers {
				op := s.ops[i]
				// A traced run traces every other op of each caller,
				// so its untraced ops give the base of the overhead.
				var t *tracer
				if (i/callers)%2 == 1 {
					t = tr
				}
				var r reply
				lat := t.time("serve."+op.endpoint(), op.Workload, t.newTrace(), -1, func() { r = s.send(cli, op) })
				s.replies[i] = r
				samples[i] = sample{lat: lat, class: s.class(op), traced: t != nil, failed: r.err != nil}
			}
		}(c, cli)
	}
	wg.Wait()
	s.srvAfter, s.cacheAfter = s.st.srv.ServerStats(), s.st.cache.Stats()
	return samples
}

// class groups ops of like cost: by endpoint on serve_hot, whose
// hits cost alike; by workload and config count on serve_cold, whose
// replay cost they set.
func (s *serving) class(op serveOp) string {
	if s.hot {
		return op.endpoint()
	}
	return fmt.Sprintf("%s/%d", op.Workload, len(op.Configs))
}

// expect computes an op's answer with the in-process engine: a serial
// fused replay, or one analytic MRC pass.
func (s *serving) expect(op serveOp) reply {
	ctx := context.Background()
	if op.MRC != nil {
		res, err := fvcache.MissRateCurves(ctx, fvcache.MRCRequest{
			Workload: op.Workload, Scale: s.scale,
			LineBytes: op.MRC.LineBytes, MaxSizeBytes: op.MRC.MaxSizeBytes, SetCounts: op.MRC.SetCounts,
		})
		if err != nil {
			return reply{err: err}
		}
		r := reply{summary: &api.MRCSummary{
			Accesses: res.Accesses, Loads: res.Loads, Stores: res.Stores,
			DistinctLines: res.DistinctLines, Curves: len(res.Curves),
		}}
		for _, c := range res.Curves {
			for _, p := range c.Points {
				r.points = append(r.points, api.MRCPoint{Sets: c.Sets, SizeBytes: p.SizeBytes, Assoc: p.Assoc, Misses: p.Misses, MissRatio: p.MissRatio})
			}
		}
		r.summary.Points = len(r.points)
		return r
	}
	res, err := measureBatch(ctx, op, s.scale, 0)
	if err != nil {
		return reply{err: err}
	}
	resp := &api.MeasureResponse{Workload: op.Workload, Scale: s.scale.String()}
	for _, m := range res {
		resp.Results = append(resp.Results, api.Result{
			Stats: m.Stats, Accesses: m.Stats.Accesses(), MissRate: m.Stats.MissRate(),
			TrafficBytes: m.Stats.TrafficBytes(), FVCFreqFrac: m.FVCFreqFrac, FVCOccupancy: m.FVCOccupancy,
		})
	}
	return reply{measure: resp}
}

// measureBatch runs an op's configs through fvcache.MeasureBatch the
// way the server materializes them (profile-derived tables included).
func measureBatch(ctx context.Context, op serveOp, scale workload.Scale, parallelism int) ([]fvcache.MeasureResult, error) {
	cfgs := make([]fvcache.Config, len(op.Configs))
	for i, c := range op.Configs {
		n := c.Normalized()
		var values []uint32
		if n.NeedsProfile() {
			var err error
			values, err = fvcache.Profile(ctx, fvcache.ProfileRequest{Workload: op.Workload, Scale: scale, K: fvcache.MaxFVTValues(n.FVCBits)})
			if err != nil {
				return nil, err
			}
		}
		cfgs[i] = n.Materialize(values)
	}
	return fvcache.MeasureBatch(ctx, fvcache.MeasureBatchRequest{
		Workload: op.Workload, Scale: scale, Configs: cfgs,
		Options: fvcache.Options{Parallelism: parallelism},
	})
}

func (s *serving) verify(samples []sample) error {
	want := map[string]reply{}
	mismatched := 0
	for _, i := range s.checked {
		k := s.ops[i].key()
		w, ok := want[k]
		if !ok {
			w = s.expect(s.ops[i])
			if w.err != nil {
				return fmt.Errorf("expected answer for %s: %w", k, w.err)
			}
			if s.corrupt != nil {
				s.corrupt(&w)
			}
			want[k] = w
		}
		if !samples[i].failed && !sameAnswer(s.replies[i], w) {
			samples[i].failed = true
			mismatched++
		}
	}
	if mismatched > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d answers differ from the in-process engine\n", mismatched)
	}
	shown := 0
	for i, r := range s.replies {
		if r.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", i, s.ops[i].key(), r.err)
			shown++
		}
	}
	return nil
}

func (s *serving) close() {
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

// layers times, for each checked op, the layer calls its request
// needed — key computation, the cache probe or the replay and store,
// encoding — and the client's bare round trip. serve.wait_ms is what
// remains of the op's latency: waiting in the coalescing window and
// the queue.
func (s *serving) layers(tr *tracer, samples []sample, m map[string]float64) error {
	ctx := context.Background()
	tid := tr.newTrace()
	parent := tr.begin("probe.serve", "", tid, -1)
	defer tr.end(parent)

	m["trace.bytes_per_access"] = s.bytesPerAccess
	if err := probeEngine(tr, s.scale, m); err != nil {
		return err
	}

	var rtts []float64
	for i := 0; i < 32; i++ {
		var err error
		rtts = append(rtts, us(tr.time("client.rtt", "", tid, parent, func() { err = s.st.clients[0].Ready(ctx) })))
		if err != nil {
			return err
		}
	}
	rtt := median(rtts)

	// A scratch memory-only cache stands in for the server's: it holds
	// every hot key (the puts are timed), and each request's keys are
	// probed there; cold requests miss and are then stored.
	scratch, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		return err
	}
	hot := s.hot
	var puts, gets, keys, codecs, waits []float64
	cacheKeys := func(op serveOp) []resultcache.Key {
		if op.MRC != nil {
			return []resultcache.Key{{Workload: op.Workload, Scale: s.scale.String(), ConfigFP: op.key(), Engine: fvcache.EngineVersion}}
		}
		var ks []resultcache.Key
		for _, c := range op.Configs {
			ks = append(ks, resultcache.Key{Workload: op.Workload, Scale: s.scale.String(), ConfigFP: c.Normalized().Fingerprint(), Engine: fvcache.EngineVersion})
		}
		return ks
	}
	put := func(k resultcache.Key) time.Duration {
		return tr.time("resultcache.put", k.Workload, tid, parent, func() { scratch.Put(k, []fvcache.MeasureResult{{}}) })
	}
	if hot {
		for _, op := range s.warm {
			for _, k := range cacheKeys(op) {
				puts = append(puts, us(put(k)))
			}
		}
	}
	for _, i := range s.checked {
		op, r := s.ops[i], s.replies[i]
		if r.err != nil {
			continue
		}
		keyT := tr.time("api.key", op.Workload, tid, parent, func() { err = opKey(op) })
		if err != nil {
			return err
		}
		var getT, putT, replayT time.Duration
		for _, k := range cacheKeys(op) {
			getT += tr.time("resultcache.get", k.Workload, tid, parent, func() { scratch.Get(k) })
			if !hot {
				d := put(k)
				putT += d
				puts = append(puts, us(d))
			}
		}
		if !hot {
			replayT = tr.time("fvcache.measure_batch", op.Workload, tid, parent, func() {
				_, err = measureBatch(ctx, op, s.scale, runtime.GOMAXPROCS(0))
			})
			if err != nil {
				return err
			}
		}
		codecT := tr.time("api.codec", op.Workload, tid, parent, func() { err = roundTrip(r) })
		if err != nil {
			return err
		}
		keys = append(keys, us(keyT))
		gets = append(gets, us(getT))
		codecs = append(codecs, us(codecT))
		rest := samples[i].lat - keyT - getT - putT - replayT - codecT
		waits = append(waits, ms(rest)-rtt/1000)
	}

	var lat, measureLat, mrcLat []float64
	measured, coalesced, batchConfigs := 0, 0, map[string]int{}
	for i, op := range s.ops {
		lat = append(lat, ms(samples[i].lat))
		if op.MRC != nil {
			mrcLat = append(mrcLat, ms(samples[i].lat))
			continue
		}
		measureLat = append(measureLat, ms(samples[i].lat))
		measured++
		if b := s.replies[i].measure; b != nil {
			if b.Batch.Coalesced {
				coalesced++
			}
			batchConfigs[b.Batch.TraceID] = b.Batch.Configs
		}
	}
	var perBatch []float64
	for _, n := range batchConfigs {
		perBatch = append(perBatch, float64(n))
	}
	hits := float64(s.cacheAfter.Hits - s.cacheBefore.Hits)
	misses := float64(s.cacheAfter.Misses - s.cacheBefore.Misses)

	m["api.key_us"] = median(keys)
	m["api.codec_us"] = median(codecs)
	m["client.rtt_us"] = rtt
	m["resultcache.get_us"] = median(gets)
	m["resultcache.put_us"] = median(puts)
	if hits+misses > 0 {
		m["resultcache.hit_ratio"] = hits / (hits + misses)
	}
	m["serve.wait_ms"] = median(waits)
	if measured > 0 {
		m["serve.coalesced_ratio"] = float64(coalesced) / float64(measured)
		m["serve.batches_per_req"] = float64(s.srvAfter.Batches-s.srvBefore.Batches) / float64(measured)
	}
	m["serve.configs_per_batch"] = mean(perBatch)
	m["serve.rejected"] = float64(s.srvAfter.Rejected - s.srvBefore.Rejected)
	m["serve.measure_p50_ms"] = median(measureLat)
	m["serve.mrc_p50_ms"] = median(mrcLat)
	m["serve.p99_ms"] = percentile(lat, 0.99)
	return nil
}

// opKey is the key computation the server does for a request:
// normalize, validate and fingerprint each config (an MRC request
// normalizes and validates its geometry).
func opKey(op serveOp) error {
	if op.MRC != nil {
		_, err := fvcache.MRCRequest{LineBytes: op.MRC.LineBytes, MaxSizeBytes: op.MRC.MaxSizeBytes, SetCounts: op.MRC.SetCounts}.Validate()
		return err
	}
	for _, c := range op.Configs {
		n := c.Normalized()
		if err := n.Validate(); err != nil {
			return err
		}
		_ = n.Fingerprint()
	}
	return nil
}

// roundTrip encodes a reply as the server sends it and decodes it as
// the client reads it.
func roundTrip(r reply) error {
	if r.measure != nil {
		b, err := json.Marshal(r.measure)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, new(api.MeasureResponse))
	}
	for i := range r.points {
		b, err := json.Marshal(api.MRCLine{Point: &r.points[i]})
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, new(api.MRCLine)); err != nil {
			return err
		}
	}
	b, err := json.Marshal(api.MRCLine{Summary: r.summary})
	if err != nil {
		return err
	}
	return json.Unmarshal(b, new(api.MRCLine))
}
