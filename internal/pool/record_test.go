package pool

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"boss/internal/corpus"
	"boss/internal/perf"
	"boss/internal/topk"
)

// poisonDoc is the docID a released record's slab and routing are overwritten
// with; no test corpus holds that many documents.
const poisonDoc = math.MaxUint32

var errPoisoned = errors.New("pool: read a released record")

// poisonRecord overwrites everything a released record still holds: every
// slab entry becomes a sentinel docID with a NaN score, every metrics record
// negative counters, every outcome an error, every narrowed-plan slot a term
// no shard holds, every routing slot a sentinel, every fetch payload byte a
// sentinel and every field length negative. A result that kept a reference
// into a record it gave back, or a request that read its record before
// writing it, reads this.
func poisonRecord(rec *queryRec) {
	for i := range rec.slab[:cap(rec.slab)] {
		rec.slab[i] = topk.Entry{DocID: poisonDoc, Score: math.NaN()}
	}
	for i := range rec.ms {
		rec.ms[i] = perf.Metrics{SeqReadBytes: -1, HostBytes: -1, ComputeTime: -1, BlocksFetched: -1, DocsEvaluated: -1, DocsFetched: -1}
	}
	for i := range rec.outs {
		rec.outs[i] = shardOut{m: &rec.ms[i], topk: rec.slab, err: errPoisoned}
	}
	for i := range rec.plans {
		dnf, terms := rec.plans[i].dnf, rec.plans[i].terms
		for j := range dnf[:cap(dnf)] {
			dnf[:cap(dnf)][j] = []string{"poisoned"}
		}
		for j := range terms[:cap(terms)] {
			terms[:cap(terms)][j] = "poisoned"
		}
	}
	for si := range rec.ids {
		ids, pos := rec.ids[si], rec.pos[si]
		for j := range ids[:cap(ids)] {
			ids[:cap(ids)][j] = poisonDoc
		}
		for j := range pos[:cap(pos)] {
			pos[:cap(pos)][j] = -1
		}
	}
	for si := range rec.payload {
		payload, flens := rec.payload[si], rec.flens[si]
		for j := range payload[:cap(payload)] {
			payload[:cap(payload)][j] = 0xEE
		}
		for j := range flens[:cap(flens)] {
			flens[:cap(flens)][j] = -1
		}
	}
	for j := range rec.hits[:cap(rec.hits)] {
		rec.hits[:cap(rec.hits)][j] = poisonDoc
	}
}

// poisonBatch overwrites everything a BatchResult keeps for its next batch
// except the TopK and Docs it handed off: the metrics slab with negative
// counters, every PerShard, ShardErrs and ServedBy slot, every error, and
// every result's own fields. A batch that read what its BatchResult held
// before binding it reads this; an answer kept from an earlier batch must not
// change.
func poisonBatch(br *BatchResult) {
	for i := range br.metrics {
		br.metrics[i] = perf.Metrics{SeqReadBytes: -1, HostBytes: -1, ComputeTime: -1, BlocksFetched: -1, DocsEvaluated: -1, DocsFetched: -1}
		br.perShard[i] = &br.metrics[i]
		br.shardErrs[i] = errPoisoned
	}
	for i := range br.servedBy {
		br.servedBy[i] = -7
	}
	for i := range br.Results {
		r := &br.Results[i]
		r.LinkBytes, r.Degraded, r.Hedged, r.HedgeWins, r.ShardErrs = -1, ^uint64(0), -1, -1, br.shardErrs
		br.Errs[i] = errPoisoned
	}
	br.Err = errPoisoned
}

// TestRecordReuseTorture: every per-request record is poisoned as it is
// released (poisonRecord) while concurrent SearchBatchQueries batches mix
// depths, front-door shard masks, searches with and without their documents
// and fetches by id on a 5-shard cluster, some of whose shards narrow the
// queries. Each result must equal what the serial path (SearchSerial's, one
// query at a time) answers on a fresh cluster that poisons nothing — checked
// when its batch returns, and again once every batch has run, after its
// records have been recycled many times over. In the "fresh" arm every batch
// has a BatchResult of its own, and the whole result is checked again; in the
// "reused" arm each goroutine runs all its batches through one BatchResult,
// poisoned between batches (poisonBatch), and what a caller keeps of an
// answer — the TopK and Docs it is handed, copies of the rest — is checked
// again.
func TestRecordReuseTorture(t *testing.T) {
	c, _, ref := clusterFixture(t, 5)
	cl, err := ref.Fresh(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl.poison = poisonRecord

	// The commonest term some shard lacks, so those shards narrow a
	// multi-conjunct query into their record.
	var partial string
	for i := 0; i < len(c.Terms) && partial == ""; i++ {
		for _, idx := range cl.shards {
			if !holds(idx, c.Terms[i].Term) {
				partial = c.Terms[i].Term
			}
		}
	}
	exprs := []string{fmt.Sprintf(`(%q AND %q) OR %q OR (%q AND %q)`, c.Terms[0].Term, partial, partial, c.Terms[1].Term, c.Terms[2].Term)}
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 2, 33) {
			exprs = append(exprs, q.Expr)
		}
	}
	ctx := context.Background()
	var qs []BatchQuery
	for _, e := range exprs {
		for _, k := range []int{1, 10, 37} {
			for _, mask := range []uint64{0, 0b10111, 0b01101} {
				qs = append(qs, BatchQuery{Expr: e, K: k, ShardMask: mask}, BatchQuery{Expr: e, K: k, ShardMask: mask, WithDocs: true})
			}
		}
	}
	type answer struct {
		res *ClusterResult
		err error
	}
	serial := func(q BatchQuery) answer {
		res, err := ref.execFresh(ctx, q, 1)
		return answer{res, err}
	}
	var want []answer
	for _, q := range qs {
		want = append(want, serial(q))
	}
	// The fetch legs: each search's hits, by id.
	for i := range qs {
		if w := want[i]; w.err == nil && !qs[i].WithDocs && len(w.res.TopK) > 0 {
			q := BatchQuery{FetchIDs: make([]uint32, len(w.res.TopK)), ShardMask: qs[i].ShardMask}
			for j, e := range w.res.TopK {
				q.FetchIDs[j] = e.DocID
			}
			qs = append(qs, q)
			want = append(want, serial(q))
		}
	}
	check := func(t *testing.T, what string, qi int, got answer, whole bool) {
		t.Helper()
		q, w := qs[qi], want[qi]
		switch {
		case (got.err == nil) != (w.err == nil) || got.err != nil && got.err.Error() != w.err.Error():
			t.Errorf("%s %+v: error %v, serial %v", what, q, got.err, w.err)
		case got.err != nil:
		case !reflect.DeepEqual(got.res.TopK, w.res.TopK):
			t.Errorf("%s %+v: TopK\n got %v\nwant %v", what, q, got.res.TopK, w.res.TopK)
		case whole && !reflect.DeepEqual(got.res.PerShard, w.res.PerShard):
			t.Errorf("%s %+v: PerShard differs from the serial run's", what, q)
		case !reflect.DeepEqual(got.res.Docs, w.res.Docs) || got.res.LinkBytes != w.res.LinkBytes || got.res.Degraded != w.res.Degraded:
			t.Errorf("%s %+v: documents, link bytes or degradation differ from the serial run's", what, q)
		}
	}

	for _, arm := range []string{"fresh", "reused"} {
		t.Run(arm, func(t *testing.T) {
			const goroutines, rounds, batch = 4, 3, 16
			got := make([][]answer, goroutines)
			order := make([][]int, goroutines)
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var reused BatchResult
					for range rounds {
						perm := rng.Perm(len(qs))
						for lo := 0; lo < len(perm); lo += batch {
							idx := perm[lo:min(lo+batch, len(perm))]
							b := make([]BatchQuery, len(idx))
							for i, qi := range idx {
								b[i] = qs[qi]
							}
							br := &reused
							if arm == "fresh" {
								br = new(BatchResult)
							}
							cl.SearchBatchQueries(ctx, b, br)
							for i, qi := range idx {
								res, err := slot(br, i)
								check(t, "at return", qi, answer{res, err}, true)
								if arm == "reused" && err == nil {
									// What the caller may keep: the handed-off TopK and Docs, copies of the rest.
									res = &ClusterResult{TopK: res.TopK, Docs: res.Docs, LinkBytes: res.LinkBytes, Degraded: res.Degraded}
								}
								got[g], order[g] = append(got[g], answer{res, err}), append(order[g], qi)
							}
							if arm == "reused" {
								poisonBatch(br)
							}
						}
					}
				}()
			}
			wg.Wait()
			for g := range got {
				for i, a := range got[g] {
					check(t, "after every batch", order[g][i], a, arm == "fresh")
				}
			}
		})
	}
}
