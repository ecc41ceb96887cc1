package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"boss"
	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/front"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/pool"
	"boss/internal/sim"
	"boss/internal/topk"
)

// delivered is one request's outcome in the form the oracle checks.
type delivered struct {
	topk     []topk.Entry
	docs     []pool.FetchedDoc
	degraded uint64
	err      error
}

// simCost is the modeled device cost of one directly-called request.
type simCost struct {
	latencyUs float64 // max over shards of perf.Metrics.Latency(mem.SCM())
	scmBytes  float64 // sum over shards of perf.Metrics.DeviceBytes()
	linkBytes float64 // ClusterResult.LinkBytes (cluster deployments)
}

// ticket is a submitted request's handle; wait consumes it.
type ticket interface {
	wait(ctx context.Context) delivered
}

// frontStats is the subset of front-door counters both deployment shapes
// expose. flushDeadline is -1 where the facade hides it.
type frontStats struct {
	submitted, admitted, dedup, degraded, rejected, batches, executed float64
	flushDeadline                                                     float64
}

// deployment is one constructed system under test, driven only through
// its public entry points.
type deployment interface {
	// submit is the asynchronous front-door path (warm-up, sat, open).
	submit(expr string, ids []uint32, k int) (ticket, error)
	// flush forces the pending batch out (a no-op when a size flush
	// already took it).
	flush()
	// direct is the deployment's synchronous call (seq).
	direct(ctx context.Context, q *queryInfo) (delivered, simCost)
	frontStats() frontStats
	// cacheStats is ok=false where the facade hides the counters.
	cacheStats() (cache.Stats, bool)
	postingHitRate() float64
	close()
}

// --- cluster deployments ---------------------------------------------

// clusterDeploy is exactly what boss.ShardedIndex.Serve wires, built
// directly because the facade hides pool.Config.CacheBytes.
type clusterDeploy struct {
	cl    *pool.Cluster
	f     *front.Front
	fetch bool
}

type frontTicket struct{ t *front.Ticket }

func (ft frontTicket) wait(ctx context.Context) delivered {
	r := ft.t.Wait(ctx)
	return delivered{topk: r.TopK, docs: r.Docs, degraded: r.Degraded, err: r.Err}
}

func (d *clusterDeploy) submit(expr string, ids []uint32, k int) (ticket, error) {
	t, err := d.f.Submit(front.Request{Expr: expr, FetchIDs: ids, K: k})
	if err != nil {
		return nil, err
	}
	return frontTicket{t}, nil
}

func (d *clusterDeploy) flush() { d.f.Flush() }

func (d *clusterDeploy) direct(ctx context.Context, q *queryInfo) (delivered, simCost) {
	var res *pool.ClusterResult
	var err error
	if d.fetch {
		res, err = d.cl.SearchFetchCtx(ctx, q.expr, q.k)
	} else {
		res, err = d.cl.SearchCtx(ctx, q.expr, q.k)
	}
	if err != nil {
		return delivered{err: err}, simCost{}
	}
	var sc simCost
	scm := mem.SCM()
	for _, m := range res.PerShard {
		if m == nil {
			continue
		}
		if us := sim.Seconds(m.Latency(scm)) * 1e6; us > sc.latencyUs {
			sc.latencyUs = us
		}
		sc.scmBytes += float64(m.DeviceBytes())
	}
	sc.linkBytes = float64(res.LinkBytes)
	return delivered{topk: res.TopK, docs: res.Docs, degraded: res.Degraded}, sc
}

func (d *clusterDeploy) frontStats() frontStats {
	m := d.f.Metrics()
	return frontStats{
		submitted: float64(m.Submitted), admitted: float64(m.Admitted), dedup: float64(m.DedupHits),
		degraded: float64(m.Degraded), rejected: float64(m.RejectedFull + m.ShedTokens),
		batches: float64(m.Batches), executed: float64(m.Executed), flushDeadline: float64(m.FlushDeadline),
	}
}

func (d *clusterDeploy) cacheStats() (cache.Stats, bool) { return d.cl.CacheStats(), true }
func (d *clusterDeploy) postingHitRate() float64         { return d.cl.CacheStats().PostingHitRate() }
func (d *clusterDeploy) close()                          { d.f.Close() }

// newCluster builds the cluster deployment over c. A non-nil rec wraps the
// backend for the traced run; the untraced run wires the backend bare.
func newCluster(sp spec, c *corpus.Corpus, rec *recorder) (*clusterDeploy, error) {
	cfg := pool.DefaultConfig()
	cfg.Replicas = 1
	if sp.cacheBytes > 0 {
		cfg.CacheBytes = sp.cacheBytes
	}
	cl, err := pool.NewCluster(cfg, c, numShards)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if sp.fetch {
		if err := cl.EnsureDocs(); err != nil {
			return nil, fmt.Errorf("docstores: %w", err)
		}
	}
	var be front.Backend = front.NewClusterBackend(cl)
	if rec != nil {
		be = &tracedBackend{inner: be, rec: rec}
	}
	f, err := front.New(front.Config{}, be)
	if err != nil {
		return nil, fmt.Errorf("front: %w", err)
	}
	return &clusterDeploy{cl: cl, f: f, fetch: sp.fetch}, nil
}

// --- single-device deployment through the facade -----------------------

// facadeDeploy is the sparse-q7 shape: an impact-quantized index written,
// read back through boss.ReadIndex and served by Accelerator.Serve — the
// only workload on serve.go's accelBackend, which the benchmark cannot
// wrap (the facade constructs it), so its traced run has no backend.batch.
type facadeDeploy struct {
	acc *boss.Accelerator
	srv *boss.Server
}

type serveTicket struct{ t *boss.ServeTicket }

func hitsToEntries(hits []boss.Hit) []topk.Entry {
	out := make([]topk.Entry, len(hits))
	for i, h := range hits {
		out[i] = topk.Entry{DocID: h.DocID, Score: h.Score}
	}
	return out
}

func (st serveTicket) wait(ctx context.Context) delivered {
	r, err := st.t.Wait(ctx)
	if err != nil {
		return delivered{err: err}
	}
	return delivered{topk: hitsToEntries(r.Hits), degraded: r.Degraded}
}

func (d *facadeDeploy) submit(expr string, ids []uint32, k int) (ticket, error) {
	t, err := d.srv.Submit(boss.ServeRequest{Expr: expr, FetchIDs: ids, K: k})
	if err != nil {
		return nil, err
	}
	return serveTicket{t}, nil
}

func (d *facadeDeploy) flush() { d.srv.Flush() }

func (d *facadeDeploy) direct(_ context.Context, q *queryInfo) (delivered, simCost) {
	hits, st, err := d.acc.Search(q.expr, q.k)
	if err != nil {
		return delivered{err: err}, simCost{}
	}
	return delivered{topk: hitsToEntries(hits)}, simCost{
		latencyUs: float64(st.SimulatedLatency) / float64(time.Microsecond),
		scmBytes:  float64(st.DeviceBytes),
	}
}

func (d *facadeDeploy) frontStats() frontStats {
	s := d.srv.Stats()
	return frontStats{
		submitted: float64(s.Submitted), admitted: float64(s.Admitted), dedup: float64(s.DedupHits),
		degraded: float64(s.Degraded), rejected: float64(s.Rejected + s.Shed),
		batches: float64(s.Batches), executed: float64(s.Executed), flushDeadline: -1,
	}
}

func (d *facadeDeploy) cacheStats() (cache.Stats, bool) { return cache.Stats{}, false }
func (d *facadeDeploy) postingHitRate() float64         { return d.acc.PostingCacheHitRate() }
func (d *facadeDeploy) close()                          { d.srv.Close() }

// newFacade builds the single-device deployment, index file round trip
// included. It also returns the built index so the oracle and the kernel
// replays share it instead of building a second one.
func newFacade(c *corpus.Corpus) (*facadeDeploy, *index.Index, error) {
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		return nil, nil, fmt.Errorf("index write: %w", err)
	}
	ix, err := boss.ReadIndex(&buf)
	if err != nil {
		return nil, nil, fmt.Errorf("index read: %w", err)
	}
	acc := ix.Accelerator(boss.AccelOptions{})
	srv, err := acc.Serve(boss.FrontConfig{})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	return &facadeDeploy{acc: acc, srv: srv}, idx, nil
}
