package core

import (
	"context"
	"fmt"

	"boss/internal/cache"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/sim"
)

// This file is the fetch phase of serving: after ranking ends at scored
// docIDs, the fetch engine loads, integrity-checks, and decodes the
// document-store blocks holding those documents, charging the simulated
// SCM exactly as the posting path charges posting blocks — sequential
// streams under mem.CatLoadDoc, one exposed device round trip per
// fetch-queue window, decode cycles on the pipeline. Decoded doc blocks
// are published to the shared block cache under cache.ClassDoc; every
// charge is made before the cache's answer is looked at, so modeled figures
// are byte-identical with or without the host-side cache (only host work is
// saved), the same invariant the posting path maintains.

// docDecodeBytesPerCycle prices the byte-oriented LZ decode on the
// modeled pipeline: 8 decoded bytes per cycle (8 GB/s at the 1 GHz
// clock). A function of the block's raw length alone, so it is charged
// without decoding anything.
const docDecodeBytesPerCycle = 8

// docDecodeCycles returns the modeled decode cost of one raw block.
func docDecodeCycles(rawLen int64) int64 {
	return (rawLen + docDecodeBytesPerCycle - 1) / docDecodeBytesPerCycle
}

// cyclesDuration converts pipeline cycles to simulated time at the
// accelerator clock.
func cyclesDuration(cyc int64) sim.Duration {
	return sim.Duration(float64(cyc) / clockGHz * float64(sim.Nanosecond))
}

// FetchEngine fetches documents from a block-compressed docstore.Store,
// optionally through the shared decoded-block cache. A FetchEngine is
// safe for concurrent use: all mutable per-fetch state lives in the
// caller's DocBuf and Metrics.
type FetchEngine struct {
	ds     *docstore.Store
	cache  *cache.Cache
	tab    *cache.Table // the store's block table in cache, resolved at construction
	fault  *mem.Injector
	faultK uint64 // fault-injection namespace for this store's blocks
}

// NewFetchEngine returns a fetch engine over ds, publishing decoded
// blocks to c (a nil c admits nothing: every fetch decodes its block).
func NewFetchEngine(ds *docstore.Store, c *cache.Cache) *FetchEngine {
	return &FetchEngine{
		ds:     ds,
		cache:  c,
		tab:    c.Table(ds.ID(), cache.ClassDoc, ds.NumBlocks()),
		faultK: mem.StableKey("docstore"),
	}
}

// SetFault attaches a fault injector; doc-block reads then go through the
// same seeded fault model as posting-block reads.
func (e *FetchEngine) SetFault(inj *mem.Injector) { e.fault = inj }

// Cache returns the attached cache (nil when uncached).
func (e *FetchEngine) Cache() *cache.Cache { return e.cache }

// DocBuf is a reusable, zero-copy view of one fetched document. Fields
// alias the pinned entry holding the document's decoded block; they are
// valid until the next FetchInto with this buffer or Release, whichever
// comes first. Release must be called when done (releasing the pin); a
// DocBuf must not be shared across goroutines.
type DocBuf struct {
	DocID  uint32
	Fields [][]byte // one slice per store field, in field order

	ent *cache.Entry
	c   *cache.Cache
}

// Release drops the buffer's pin on the underlying entry, if any. The
// Fields slices must not be used afterwards. Safe to call repeatedly.
func (b *DocBuf) Release() {
	b.c.Release(b.ent)
	b.ent = nil
	b.Fields = b.Fields[:0]
}

// FetchInto fetches one document into buf, charging m with the simulated
// SCM fetch and decode work. On success buf.Fields holds one zero-copy
// slice per store field. Any prior pin held by buf is released first, so
// a loop reusing one buffer holds at most one block pinned.
//
//boss:hotpath the per-document fetch loop; a fetch that finds its block allocates nothing.
func (e *FetchEngine) FetchInto(ctx context.Context, docID uint32, m *perf.Metrics, buf *DocBuf) error {
	buf.c.Release(buf.ent)
	buf.ent = nil
	if ctx != nil {
		if cause := ctx.Err(); cause != nil {
			return ctxError(cause)
		}
	}
	ds := e.ds
	if int64(docID) >= int64(ds.NumDocs) {
		return failDocRange(docID, ds.NumDocs) //boss:escape-ok cold out-of-range error path
	}
	bi := ds.BlockOf(docID)
	meta := &ds.Blocks[bi]
	m.DocsFetched++

	ch := e.cache
	ent := e.tab.Get(bi)

	// The modeled device has no DRAM block cache, so every simulated charge
	// — the SCM stream, the queue hop, the decode cycles — is made here,
	// before the cache's answer is looked at. Only host work, the actual
	// decompression, depends on it.
	if inj := e.fault; inj != nil {
		if f := chargeFaultyRead(inj, m, e.faultK, bi, int64(meta.CompLen), mem.CatLoadDoc); f != mem.FaultNone {
			ch.Release(ent)
			return failDocFault(f, bi)
		}
	} else {
		m.AddSeqRead(int64(meta.CompLen), mem.CatLoadDoc)
	}
	m.DocBlocksFetched++
	// The fetch module keeps a bounded number of block requests in flight;
	// each windowful exposes one device read latency on the pipeline.
	if m.DocBlocksFetched%fetchQueueDepth == 0 {
		m.SerialFetchHops++
	}
	cycles := cyclesDuration(docDecodeCycles(int64(meta.RawLen)))

	if ent == nil {
		payload := ds.BlockPayload(bi)
		// Integrity gate: verify the payload CRC before decoding so media
		// corruption is detected and typed instead of silently served (and
		// never published to the shared cache).
		if docstore.ChecksumPayload(payload) != meta.Checksum {
			m.IntegrityFailures++
			return failDocCorrupt(bi) //boss:escape-ok cold corruption error path
		}
		// Decode straight into a reserved byte slab and publish it so the
		// next fetch finds it. A failed decode releases the reserved (never
		// published) entry.
		n := int(meta.RawLen)
		ent = ch.ReserveBytes(n)
		dst := ent.ByteBuf(n)
		if err := ds.DecodeBlock(dst, payload); err != nil {
			ch.Release(ent)
			return failDocDecode(bi, err) //boss:escape-ok cold decode-failure error path
		}
		ent = e.tab.PublishBytes(bi, ent, dst)
	}
	m.AddCompute(cycles)
	buf.ent, buf.c = ent, ch

	fields, err := ds.AppendDoc(buf.Fields[:0], ent.Data(), int(docID)-int(meta.FirstDoc))
	if err != nil {
		buf.Release()
		return err
	}
	buf.DocID = docID
	buf.Fields = fields
	return nil
}

// The failDoc* helpers build wrapped, typed errors. Outlined from the hot
// fetch path so it carries no fmt calls (hotpathalloc); they only run
// when a fetch is already failing.

func failDocRange(docID uint32, n int) error {
	return fmt.Errorf("core: fetch docID %d out of range (store holds %d documents)", docID, n)
}

func failDocCorrupt(b int) error {
	return fmt.Errorf("core: doc block %d: checksum mismatch: %w (%w)", b, docstore.ErrCorrupt, mem.ErrMediaUncorrectable)
}

func failDocDecode(b int, err error) error {
	return fmt.Errorf("core: doc block %d decode failed: %w (%w)", b, err, mem.ErrMediaUncorrectable)
}

// failDocFault types the fault chargeFaultyRead stopped on.
func failDocFault(f mem.Fault, b int) error {
	switch f {
	case mem.FaultUncorrectable:
		return fmt.Errorf("core: doc block %d: %w", b, mem.ErrMediaUncorrectable)
	case mem.FaultDeviceDown:
		return fmt.Errorf("core: doc block %d: %w", b, mem.ErrDeviceDown)
	default: // mem.FaultTransient, out of attempts
		return fmt.Errorf("core: doc block %d: retries exhausted: %w", b, mem.ErrTransientRead)
	}
}
