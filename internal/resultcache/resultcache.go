// Package resultcache is a tiered (in-memory LRU -> on-disk),
// content-addressed store for measurement results, keyed by (workload,
// scale, config fingerprint, engine version). It is the durable half
// of the fvcached serving path: repeat traffic for a configuration the
// fleet has already measured is answered in O(1) without replaying the
// workload, across requests and across process restarts.
//
// Robustness is the design headline, not an afterthought:
//
//   - Disk entries are written atomically (temp file + fsync + rename)
//     and framed with a magic/version header and CRC32C over the
//     payload (entry.go). Every read validates the frame; a corrupt or
//     truncated entry is quarantined into the corrupt/ subdirectory
//     and counted — it is never returned as a result.
//   - The filesystem is the index: a boot-time recovery scan rebuilds
//     the disk index from surviving entries, quarantining damage
//     (including *.tmp leftovers from a crash mid-write). There is no
//     journal to replay or corrupt.
//   - Admission is Flashield-style: a result earns its durable write
//     only after a second hit on its fingerprint demonstrates reuse,
//     keeping disk writes bounded under one-shot traffic.
//   - The disk tier degrades, never outages: EIO/ENOSPC/slow I/O trips
//     the tier into memory-only mode (log + counter), re-probing after
//     a cooldown. Callers see cache misses, not errors.
//
// Concurrency: all methods are safe for concurrent use. The memory
// hit path is allocation-free (gated by TestResultCacheHitZeroAllocs)
// so it can sit on the service's per-request fast path.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fvcache/internal/obs"
	"fvcache/internal/sim"
)

// Cache metrics, exported on /debug/metrics and in the telemetry
// snapshot.
var (
	cacheHits        = obs.Default.Counter("resultcache_hit")
	cacheMisses      = obs.Default.Counter("resultcache_miss")
	cachePromotes    = obs.Default.Counter("resultcache_promote")
	cacheQuarantined = obs.Default.Counter("resultcache_corrupt_quarantined")
	cacheDegraded    = obs.Default.Counter("resultcache_disk_degraded")
	cacheDiskHits    = obs.Default.Counter("resultcache_disk_hit")
	cacheSlowOps     = obs.Default.Counter("resultcache_disk_slow")
)

// Key identifies one cached measurement. ConfigFP must be a stable
// fingerprint of the configuration and measurement options; Engine
// pins the producing engine version so a stale binary never serves
// another version's numbers.
type Key struct {
	Workload string
	Scale    string
	ConfigFP string
	Engine   string
}

// addr derives the key's content address: the hex SHA-256 of its
// fields, which is also the disk tier's filename (plus entryExt).
func (k Key) addr() string {
	h := sha256.New()
	for _, s := range []string{k.Workload, k.Scale, k.ConfigFP, k.Engine} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryExt is the disk entry filename extension.
const entryExt = ".fvr"

// corruptDir is the quarantine subdirectory under the cache root.
const corruptDir = "corrupt"

// promoteAfter is how many memory-tier hits a fingerprint needs before
// its result is written to disk: the Flashield admission rule — one
// demonstrated reuse is not enough, a second hit is.
const promoteAfter = 2

// degradeCooldown is how long a degraded disk tier stays offline
// before the next operation re-probes it.
const degradeCooldown = 30 * time.Second

// Options configures a Cache.
type Options struct {
	// Dir is the disk tier root; "" disables the disk tier (the cache
	// is memory-only).
	Dir string
	// MemBytes bounds the memory tier (<=0 means 64 MiB).
	MemBytes int64
	// DiskBytes bounds the disk tier (<=0 means 256 MiB). Over-budget
	// entries are evicted oldest-first.
	DiskBytes int64
	// DegradeAfter is how many consecutive disk faults trip the disk
	// tier into memory-only degraded mode (<=0 means 3). ENOSPC trips
	// immediately regardless.
	DegradeAfter int
	// SlowOp classifies a disk read or write slower than this as a
	// fault (0 disables slow-I/O detection).
	SlowOp time.Duration
	// FS overrides the filesystem (nil means OSFS). Used by the chaos
	// suite to inject filesystem faults.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.MemBytes <= 0 {
		o.MemBytes = 64 << 20
	}
	if o.DiskBytes <= 0 {
		o.DiskBytes = 256 << 20
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 3
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	return o
}

// memEntry is one memory-tier resident with its intrusive LRU links.
type memEntry struct {
	key        Key
	results    []sim.MeasureResult
	size       int64
	hits       int
	onDisk     bool
	promoting  bool
	prev, next *memEntry
}

// diskEntry is one disk-tier index record. The entry bytes live in
// the filesystem; this is only the accounting.
type diskEntry struct {
	key  Key
	size int64
	seq  uint64 // write order; lowest evicts first
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts Get calls answered from either tier.
	Hits uint64
	// Misses counts Get calls answered by neither tier.
	Misses uint64
	// DiskHits counts hits that were faulted in from the disk tier.
	DiskHits uint64
	// Promotes counts memory->disk admissions.
	Promotes uint64
	// Quarantined counts corrupt entries moved to corrupt/.
	Quarantined uint64
	// DiskFaults counts individual failed or slow disk operations.
	DiskFaults uint64
	// SlowOps counts disk operations that exceeded Options.SlowOp.
	SlowOps uint64
	// Degradations counts disk-tier trips into memory-only mode.
	Degradations uint64
	// MemEntries / DiskEntries are current tier populations.
	MemEntries, DiskEntries int
	// MemBytes / DiskBytes are current tier footprints.
	MemBytes, DiskBytes int64
	// Degraded reports whether the disk tier is currently offline.
	Degraded bool
}

// Cache is the tiered result store. Create one with Open.
type Cache struct {
	opt Options
	fs  FS

	mu         sync.Mutex
	mem        map[Key]*memEntry
	head, tail *memEntry // LRU: head = most recent
	memBytes   int64
	disk       map[Key]diskEntry
	diskBytes  int64
	diskSeq    uint64

	// Degradation state. degraded is the hit path's cheap check; the
	// rest is guarded by fmu.
	degraded      atomic.Bool
	fmu           sync.Mutex
	faults        int
	degradedUntil time.Time

	hits, misses, diskHits, promotes atomic.Uint64
	quarantined, diskFaults          atomic.Uint64
	slowOps, degradations            atomic.Uint64
}

// Open builds a Cache and, when a disk tier is configured, runs the
// boot-time recovery scan: every surviving entry is validated and
// indexed, corrupt or torn entries (and *.tmp leftovers from a crash
// mid-write) are quarantined, and the tier is trimmed to budget. An
// error means the disk tier's directories are unusable; callers
// should fall back to a memory-only cache rather than fail.
func Open(opt Options) (*Cache, error) {
	opt = opt.withDefaults()
	c := &Cache{
		opt:  opt,
		fs:   opt.FS,
		mem:  make(map[Key]*memEntry),
		disk: make(map[Key]diskEntry),
	}
	if opt.Dir == "" {
		return c, nil
	}
	if err := c.fs.MkdirAll(opt.Dir); err != nil {
		return nil, err
	}
	if err := c.fs.MkdirAll(filepath.Join(opt.Dir, corruptDir)); err != nil {
		return nil, err
	}
	if err := c.recoverScan(); err != nil {
		return nil, err
	}
	return c, nil
}

// recoverScan rebuilds the disk index from the filesystem.
func (c *Cache) recoverScan() error {
	dents, err := c.fs.ReadDir(c.opt.Dir)
	if err != nil {
		return err
	}
	type found struct {
		key     Key
		name    string
		size    int64
		modTime time.Time
	}
	var ok []found
	for _, de := range dents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(c.opt.Dir, name)
		if filepath.Ext(name) == tmpSuffix {
			// A crash interrupted an atomic write before the rename;
			// the bytes are a torn prefix by definition.
			c.quarantine(path, errors.New("leftover temp file from interrupted write"))
			continue
		}
		if filepath.Ext(name) != entryExt {
			continue
		}
		data, err := c.fs.ReadFile(path)
		if err != nil {
			c.quarantine(path, err)
			continue
		}
		ent, err := DecodeEntry(data)
		if err != nil {
			c.quarantine(path, err)
			continue
		}
		if want := ent.Key.addr() + entryExt; want != name {
			c.quarantine(path, errors.New("entry filed under the wrong content address"))
			continue
		}
		info, ierr := de.Info()
		mod := time.Time{}
		if ierr == nil {
			mod = info.ModTime()
		}
		ok = append(ok, found{key: ent.Key, name: name, size: int64(len(data)), modTime: mod})
	}
	// Index survivors oldest-first so budget eviction drops the oldest.
	sort.Slice(ok, func(i, j int) bool { return ok[i].modTime.Before(ok[j].modTime) })
	c.mu.Lock()
	for _, f := range ok {
		c.diskSeq++
		c.disk[f.key] = diskEntry{key: f.key, size: f.size, seq: c.diskSeq}
		c.diskBytes += f.size
	}
	evict := c.collectDiskEvictionsLocked(0)
	c.mu.Unlock()
	c.removeDiskEntries(evict)
	if n := len(c.disk); n > 0 {
		obs.Log.Info("resultcache recovered", "dir", c.opt.Dir, "entries", n, "bytes", c.diskBytes)
	}
	return nil
}

// quarantine moves a damaged file into corrupt/ (falling back to
// deletion) and counts it. The entry is never served either way.
func (c *Cache) quarantine(path string, cause error) {
	c.quarantined.Add(1)
	cacheQuarantined.Inc()
	dst := filepath.Join(c.opt.Dir, corruptDir, filepath.Base(path))
	if err := c.fs.Rename(path, dst); err != nil {
		c.fs.Remove(path)
	}
	obs.Log.Warn("resultcache quarantined entry", "path", path, "cause", cause.Error())
}

// Tier identifies which cache tier answered a lookup, so callers
// (the serving path's request traces) can attribute probe cost to
// the zero-cost memory tier vs. a disk fault-in.
type Tier int8

const (
	// TierNone means the lookup missed both tiers.
	TierNone Tier = iota
	// TierMem means the memory tier answered (allocation-free path).
	TierMem
	// TierDisk means the entry was faulted in from the disk tier.
	TierDisk
)

// Get returns the cached results for k, consulting the memory tier
// first and faulting in from the validated disk tier on a memory
// miss. The returned slice is shared and must not be mutated. The
// memory hit path allocates nothing.
func (c *Cache) Get(k Key) ([]sim.MeasureResult, bool) {
	results, tier := c.GetTier(k)
	return results, tier != TierNone
}

// GetTier is Get with tier attribution: it additionally reports which
// tier served the hit (TierNone on a miss).
func (c *Cache) GetTier(k Key) ([]sim.MeasureResult, Tier) {
	c.mu.Lock()
	if e := c.mem[k]; e != nil {
		c.moveFrontLocked(e)
		e.hits++
		promote := !e.onDisk && !e.promoting && e.hits >= promoteAfter && c.opt.Dir != ""
		if promote {
			e.promoting = true
		}
		results := e.results
		c.mu.Unlock()
		c.hits.Add(1)
		cacheHits.Inc()
		if promote {
			c.promote(k, results)
		}
		return results, TierMem
	}
	de, onDisk := c.disk[k]
	c.mu.Unlock()
	if !onDisk || !c.diskUsable() {
		c.misses.Add(1)
		cacheMisses.Inc()
		return nil, TierNone
	}
	results, ok := c.diskGet(k, de)
	if !ok {
		c.misses.Add(1)
		cacheMisses.Inc()
		return nil, TierNone
	}
	c.hits.Add(1)
	c.diskHits.Add(1)
	cacheHits.Inc()
	cacheDiskHits.Inc()
	return results, TierDisk
}

// diskGet reads, validates and re-caches one disk entry. Corruption
// quarantines the entry; I/O faults feed the degradation ladder. Both
// turn into a miss, never an error or a wrong result.
func (c *Cache) diskGet(k Key, de diskEntry) ([]sim.MeasureResult, bool) {
	path := filepath.Join(c.opt.Dir, k.addr()+entryExt)
	start := time.Now()
	data, err := c.fs.ReadFile(path)
	c.observeOp(time.Since(start))
	if err != nil {
		c.diskFault(err)
		c.dropDiskIndex(k, de)
		return nil, false
	}
	ent, derr := DecodeEntry(data)
	if derr == nil && ent.Key != k {
		derr = &CorruptError{Path: path, Cause: errors.New("entry decodes to a different key")}
	}
	if derr != nil {
		c.quarantine(path, derr)
		c.dropDiskIndex(k, de)
		return nil, false
	}
	// Fault the results into the memory tier (already durable).
	c.insertMem(k, ent.Results, true)
	return ent.Results, true
}

// dropDiskIndex forgets an unreadable or quarantined disk entry.
func (c *Cache) dropDiskIndex(k Key, de diskEntry) {
	c.mu.Lock()
	if cur, ok := c.disk[k]; ok && cur.seq == de.seq {
		delete(c.disk, k)
		c.diskBytes -= cur.size
	}
	c.mu.Unlock()
}

// Put stores freshly computed results in the memory tier. Admission
// to the disk tier happens later, from Get, once the fingerprint has
// demonstrated reuse.
func (c *Cache) Put(k Key, results []sim.MeasureResult) {
	if len(results) == 0 {
		return
	}
	c.insertMem(k, results, false)
}

// entrySize estimates one memory entry's footprint for the byte
// budget: struct overhead plus results plus key strings.
func entrySize(k Key, results []sim.MeasureResult) int64 {
	const per = 176 // unsafe.Sizeof(sim.MeasureResult{}) rounded up
	return int64(192+len(k.Workload)+len(k.Scale)+len(k.ConfigFP)+len(k.Engine)) +
		int64(len(results))*per
}

// insertMem adds (or refreshes) a memory-tier entry and evicts from
// the LRU tail while over budget.
func (c *Cache) insertMem(k Key, results []sim.MeasureResult, onDisk bool) {
	size := entrySize(k, results)
	c.mu.Lock()
	if e := c.mem[k]; e != nil {
		// Refresh in place (a disk fault-in racing a Put, or a repeat
		// Put): keep the hit count, prefer the existing results so
		// concurrent readers and the admission ladder stay coherent.
		e.onDisk = e.onDisk || onDisk
		c.moveFrontLocked(e)
		c.mu.Unlock()
		return
	}
	e := &memEntry{key: k, results: results, size: size, onDisk: onDisk}
	c.mem[k] = e
	c.memBytes += size
	c.pushFrontLocked(e)
	for c.memBytes > c.opt.MemBytes && c.tail != nil && c.tail != e {
		c.evictLocked(c.tail)
	}
	c.mu.Unlock()
}

// promote writes one entry to the disk tier (the Flashield admission
// decided by Get) and evicts the oldest disk entries if over budget.
func (c *Cache) promote(k Key, results []sim.MeasureResult) {
	if !c.diskUsable() {
		c.unmarkPromoting(k)
		return
	}
	data, err := EncodeEntry(Entry{Key: k, Results: results})
	if err != nil {
		obs.Log.Warn("resultcache entry encode failed", "err", err.Error())
		c.unmarkPromoting(k)
		return
	}
	path := filepath.Join(c.opt.Dir, k.addr()+entryExt)
	start := time.Now()
	werr := c.fs.WriteFileAtomic(path, data)
	c.observeOp(time.Since(start))
	if werr != nil {
		c.diskFault(werr)
		c.unmarkPromoting(k)
		return
	}
	c.promotes.Add(1)
	cachePromotes.Inc()
	c.mu.Lock()
	c.diskSeq++
	if old, ok := c.disk[k]; ok {
		c.diskBytes -= old.size
	}
	c.disk[k] = diskEntry{key: k, size: int64(len(data)), seq: c.diskSeq}
	c.diskBytes += int64(len(data))
	if e := c.mem[k]; e != nil {
		e.onDisk = true
		e.promoting = false
	}
	evict := c.collectDiskEvictionsLocked(0)
	c.mu.Unlock()
	c.removeDiskEntries(evict)
}

// unmarkPromoting re-arms admission after a failed promotion so a
// later hit retries once the tier recovers.
func (c *Cache) unmarkPromoting(k Key) {
	c.mu.Lock()
	if e := c.mem[k]; e != nil {
		e.promoting = false
	}
	c.mu.Unlock()
}

// collectDiskEvictionsLocked pops oldest disk entries until the tier
// fits (budget minus headroom) and returns them for file removal
// outside the lock.
func (c *Cache) collectDiskEvictionsLocked(headroom int64) []diskEntry {
	var out []diskEntry
	for c.diskBytes+headroom > c.opt.DiskBytes && len(c.disk) > 0 {
		oldest := diskEntry{seq: ^uint64(0)}
		for _, de := range c.disk {
			if de.seq < oldest.seq {
				oldest = de
			}
		}
		delete(c.disk, oldest.key)
		c.diskBytes -= oldest.size
		out = append(out, oldest)
	}
	return out
}

// removeDiskEntries deletes evicted entry files. Removal failures are
// harmless (the entry is unindexed; a future recovery scan re-indexes
// or re-evicts it).
func (c *Cache) removeDiskEntries(evict []diskEntry) {
	for _, de := range evict {
		c.fs.Remove(filepath.Join(c.opt.Dir, de.key.addr()+entryExt))
	}
}

// --- degradation ladder ---

// diskUsable reports whether the disk tier is configured and not
// degraded, re-probing a degraded tier after the cooldown.
func (c *Cache) diskUsable() bool {
	if c.opt.Dir == "" {
		return false
	}
	if !c.degraded.Load() {
		return true
	}
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if !c.degraded.Load() {
		return true
	}
	if time.Now().Before(c.degradedUntil) {
		return false
	}
	// Cooldown over: half-open. Clear the trip and let the next
	// operation probe the tier; a new fault re-trips immediately.
	c.degraded.Store(false)
	c.faults = c.opt.DegradeAfter - 1
	obs.Log.Info("resultcache disk tier re-probing after cooldown", "dir", c.opt.Dir)
	return true
}

// diskFault records one failed disk operation and trips the tier into
// degraded (memory-only) mode after DegradeAfter consecutive faults —
// immediately for ENOSPC, which will not clear by retrying.
func (c *Cache) diskFault(err error) {
	c.diskFaults.Add(1)
	c.fmu.Lock()
	defer c.fmu.Unlock()
	c.faults++
	if c.faults < c.opt.DegradeAfter && !errors.Is(err, syscall.ENOSPC) {
		obs.Log.Warn("resultcache disk fault", "err", err.Error(), "consecutive", c.faults)
		return
	}
	c.faults = 0
	c.degradedUntil = time.Now().Add(degradeCooldown)
	if !c.degraded.Swap(true) {
		c.degradations.Add(1)
		cacheDegraded.Inc()
		obs.Log.Warn("resultcache disk tier degraded to memory-only",
			"err", err.Error(), "cooldown", degradeCooldown.String())
	}
}

// observeOp feeds slow-I/O detection: an operation slower than
// Options.SlowOp counts as a disk fault even though it succeeded.
func (c *Cache) observeOp(d time.Duration) {
	if c.opt.SlowOp <= 0 || d < c.opt.SlowOp {
		return
	}
	c.slowOps.Add(1)
	cacheSlowOps.Inc()
	c.diskFault(errors.New("disk operation exceeded slow-op threshold"))
}

// Degraded reports whether the disk tier is currently offline.
func (c *Cache) Degraded() bool { return c.degraded.Load() }

// Stats returns a snapshot of the cache's counters and populations.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	memN, memB := len(c.mem), c.memBytes
	diskN, diskB := len(c.disk), c.diskBytes
	c.mu.Unlock()
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		DiskHits:     c.diskHits.Load(),
		Promotes:     c.promotes.Load(),
		Quarantined:  c.quarantined.Load(),
		DiskFaults:   c.diskFaults.Load(),
		SlowOps:      c.slowOps.Load(),
		Degradations: c.degradations.Load(),
		MemEntries:   memN,
		DiskEntries:  diskN,
		MemBytes:     memB,
		DiskBytes:    diskB,
		Degraded:     c.degraded.Load(),
	}
}

// --- intrusive LRU ---

func (c *Cache) pushFrontLocked(e *memEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlinkLocked(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFrontLocked(e *memEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

func (c *Cache) evictLocked(e *memEntry) {
	c.unlinkLocked(e)
	delete(c.mem, e.key)
	c.memBytes -= e.size
}
