//! Append-only chunked tensor store.
//!
//! One store instance manages a directory; each *key* (e.g. a materialized
//! layer, or the raw labeled dataset) holds a sequence of chunks, one per
//! append — which in Nautilus means one per labeling cycle (§4.2.3,
//! incremental feature materialization). Records are per-record tensors of a
//! fixed shape; appends take batched tensors `[n, ...record]` and scans
//! return them the same way.

use crate::io::SharedIoStats;
use crate::pagecache::{CacheStats, PageCacheModel};
use nautilus_tensor::{ser, Shape, Tensor};
use nautilus_util::{json, json_struct, pool, telemetry};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Component, Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Default page-cache model capacity for a freshly opened store. Sessions
/// override it with the configured `HardwareProfile::page_cache_bytes`.
pub const DEFAULT_PAGE_CACHE_BYTES: u64 = 1 << 30;

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Manifest is unreadable.
    BadManifest(String),
    /// Chunk payload is corrupt.
    BadChunk(String),
    /// Append shape does not match the key's record shape.
    ShapeMismatch {
        /// The key being appended to.
        key: String,
        /// Shape already registered for the key.
        expected: Vec<usize>,
        /// Shape of the incoming records.
        actual: Vec<usize>,
    },
    /// The key does not exist.
    MissingKey(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            StoreError::BadChunk(m) => write!(f, "bad chunk: {m}"),
            StoreError::ShapeMismatch { key, expected, actual } => {
                write!(f, "append to '{key}': record shape {actual:?} != {expected:?}")
            }
            StoreError::MissingKey(k) => write!(f, "missing key '{k}'"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[derive(Debug, Clone)]
struct ChunkMeta {
    file: String,
    records: usize,
    bytes: u64,
}

json_struct!(ChunkMeta { file, records, bytes });

#[derive(Debug, Clone)]
struct KeyMeta {
    dir: String,
    record_shape: Vec<usize>,
    records: usize,
    bytes: u64,
    chunks: Vec<ChunkMeta>,
}

json_struct!(KeyMeta { dir, record_shape, records, bytes, chunks });

#[derive(Debug, Default)]
struct Manifest {
    keys: BTreeMap<String, KeyMeta>,
}

json_struct!(Manifest { keys });

/// An on-disk store of per-record tensors grouped by key.
///
/// Reads and writes go through an [`PageCacheModel`] keyed by chunk file —
/// a stand-in for the OS page cache the paper relies on ("if there is
/// excess DRAM available, we rely on the OS disk cache", §3) — so the
/// shared [`SharedIoStats`] split disk vs cached bytes on the *real*
/// backend the same way the simulated backend's charges do. The model
/// only affects accounting, never data: every read still comes from the
/// filesystem (where the actual OS cache does the work being modeled).
#[derive(Debug)]
pub struct TensorStore {
    root: PathBuf,
    manifest: Manifest,
    io: SharedIoStats,
    cache: Mutex<PageCacheModel>,
}

/// One chunk of a key, as a chunk-granular reader sees it.
#[derive(Debug, Clone)]
pub struct ChunkRef {
    /// Absolute path of the chunk file.
    pub path: PathBuf,
    /// Records in the chunk.
    pub records: usize,
}

fn dir_for(key: &str) -> String {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let safe: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .take(40)
        .collect();
    format!("{safe}-{:016x}", h.finish())
}

/// Reads and decodes one chunk file and checks it against its manifest
/// entry: `records` rows of `record_shape` each. A chunk that decodes to
/// anything else is a [`StoreError::BadChunk`], never a short or
/// misshapen read.
fn load_chunk(
    path: &Path,
    records: usize,
    record_shape: &[usize],
) -> Result<(Tensor, u64), StoreError> {
    let data = {
        let _sp = telemetry::span("store", "store.chunk_read");
        std::fs::read(path)?
    };
    let _sp = telemetry::span("store", "store.chunk_decode");
    let t = ser::decode(&data).map_err(|e| StoreError::BadChunk(e.to_string()))?;
    let dims = &t.shape().0;
    if dims.first() != Some(&records) || dims[1..] != *record_shape {
        return Err(StoreError::BadChunk(format!(
            "{} decodes to {dims:?}, manifest has {records} records of {record_shape:?}",
            path.display()
        )));
    }
    Ok((t, data.len() as u64))
}

impl TensorStore {
    /// Opens (or creates) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>, io: SharedIoStats) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let manifest_path = root.join("manifest.json");
        let manifest: Manifest = if manifest_path.exists() {
            let data = std::fs::read(&manifest_path)?;
            json::from_slice(&data).map_err(|e| StoreError::BadManifest(e.to_string()))?
        } else {
            Manifest::default()
        };
        // Every path the manifest names must stay inside the store (`delete`
        // removes a key's directory recursively), and a key's record count
        // must be the sum of its chunks' (ranged reads offset by it).
        let plain = |name: &str| {
            let mut parts = Path::new(name).components();
            matches!((parts.next(), parts.next()), (Some(Component::Normal(_)), None))
        };
        for (key, meta) in &manifest.keys {
            if !plain(&meta.dir) || meta.chunks.iter().any(|c| !plain(&c.file)) {
                return Err(StoreError::BadManifest(format!(
                    "key '{key}' names a path outside the store"
                )));
            }
            let sum = meta.chunks.iter().try_fold(0usize, |n, c| n.checked_add(c.records));
            if sum != Some(meta.records) {
                return Err(StoreError::BadManifest(format!(
                    "key '{key}' holds {} records, its chunks {sum:?}",
                    meta.records
                )));
            }
        }
        Ok(TensorStore {
            root,
            manifest,
            io,
            cache: Mutex::new(PageCacheModel::new(DEFAULT_PAGE_CACHE_BYTES)),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Locks the page-cache model, riding through poisoning: the model is
    /// pure counter state (capacity, LRU ticks, hit/miss totals), so it is
    /// always safe to keep using after a panicked reader — one crashing
    /// thread must not turn every later read/append into a panic.
    fn cache_lock(&self) -> MutexGuard<'_, PageCacheModel> {
        self.cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resizes the page-cache model *in place* (e.g. to the session's
    /// configured `page_cache_bytes`): warm chunks stay warm and the
    /// cumulative hit/miss accounting — telemetry and the I/O calibration
    /// curve — is preserved. Shrinking evicts coldest-first.
    pub fn set_page_cache_bytes(&mut self, bytes: u64) {
        self.cache_lock().resize(bytes);
    }

    /// Cumulative page-cache hit/miss bytes (the observed hit curve the
    /// I/O calibration feeds back into the planner).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_lock().stats()
    }

    /// The chunks of `key` in append order, for chunk-granular readers
    /// such as the distributed coordinator's shard builder.
    pub fn chunk_plan(&self, key: &str) -> Result<Vec<ChunkRef>, StoreError> {
        let meta = self
            .manifest
            .keys
            .get(key)
            .ok_or_else(|| StoreError::MissingKey(key.to_string()))?;
        let dir = self.root.join(&meta.dir);
        Ok(meta
            .chunks
            .iter()
            .map(|c| ChunkRef { path: dir.join(&c.file), records: c.records })
            .collect())
    }

    /// Publishes the cache model's occupancy as the `pagecache.used_bytes`
    /// gauge; callers pass the still-held lock to avoid a second acquire.
    fn publish_cache_gauge(cache: &PageCacheModel) {
        if telemetry::metrics_enabled() {
            telemetry::PAGECACHE_USED_BYTES.set(cache.used() as i64);
        }
    }

    /// Splits a finished chunk read into cached vs disk bytes through the
    /// page-cache model and records both into the shared counters.
    fn account_chunk_read(&self, chunk_key: &str, bytes: u64) {
        let outcome = {
            let mut cache = self.cache_lock();
            let o = cache.read(chunk_key, bytes);
            Self::publish_cache_gauge(&cache);
            o
        };
        if outcome.miss_bytes > 0 {
            telemetry::PAGECACHE_MISSES.add(1);
            self.io.record_disk_read(outcome.miss_bytes);
        }
        if outcome.hit_bytes > 0 {
            telemetry::PAGECACHE_HITS.add(1);
            self.io.record_cached_read(outcome.hit_bytes);
        }
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        let data = json::to_string_pretty(&self.manifest);
        std::fs::write(self.root.join("manifest.json"), data)?;
        Ok(())
    }

    /// Appends a batch of records (`[n, ...record]`) under `key`.
    ///
    /// Returns the number of bytes written. The first append fixes the key's
    /// record shape; later appends must match.
    pub fn append(&mut self, key: &str, batch: &Tensor) -> Result<u64, StoreError> {
        let _sp = telemetry::span("store", "store.append");
        let record_shape = batch.shape().without_batch();
        let entry = self.manifest.keys.entry(key.to_string()).or_insert_with(|| KeyMeta {
            dir: dir_for(key),
            record_shape: record_shape.0.clone(),
            records: 0,
            bytes: 0,
            chunks: Vec::new(),
        });
        if entry.record_shape != record_shape.0 {
            return Err(StoreError::ShapeMismatch {
                key: key.to_string(),
                expected: entry.record_shape.clone(),
                actual: record_shape.0,
            });
        }
        let dir = self.root.join(&entry.dir);
        std::fs::create_dir_all(&dir)?;
        let file = format!("chunk-{:06}.bin", entry.chunks.len());
        let bytes = {
            let _sp = telemetry::span("store", "store.chunk_encode");
            ser::encode(batch)
        };
        let n = bytes.len() as u64;
        {
            let _sp = telemetry::span("store", "store.chunk_write");
            std::fs::write(dir.join(&file), &bytes)?;
        }
        let chunk_key = format!("{}/{file}", entry.dir);
        entry.chunks.push(ChunkMeta { file, records: batch.shape().dim(0), bytes: n });
        entry.records += batch.shape().dim(0);
        entry.bytes += n;
        {
            let mut cache = self.cache_lock();
            cache.write(&chunk_key, n);
            Self::publish_cache_gauge(&cache);
        }
        self.io.record_write(n);
        self.persist_manifest()?;
        Ok(n)
    }

    /// Appends several batches at once, encoding and writing the chunks on
    /// the thread pool and persisting the manifest a single time.
    ///
    /// Returns the bytes written per item, in input order. Equivalent to
    /// calling [`TensorStore::append`] for each item in order (including
    /// repeated keys), just faster: the materializer uses this to flush all
    /// of a cycle's feature outputs in one fan-out.
    pub fn append_many(&mut self, items: &[(String, Tensor)]) -> Result<Vec<u64>, StoreError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let _sp = telemetry::span("store", "store.append_many");
        // Phase 1 (sequential): validate shapes, create key entries and
        // directories, and assign each item its chunk file path.
        let mut pending: HashMap<&str, usize> = HashMap::new();
        let mut paths = Vec::with_capacity(items.len());
        for (key, batch) in items {
            let record_shape = batch.shape().without_batch();
            let entry = self.manifest.keys.entry(key.clone()).or_insert_with(|| KeyMeta {
                dir: dir_for(key),
                record_shape: record_shape.0.clone(),
                records: 0,
                bytes: 0,
                chunks: Vec::new(),
            });
            if entry.record_shape != record_shape.0 {
                return Err(StoreError::ShapeMismatch {
                    key: key.clone(),
                    expected: entry.record_shape.clone(),
                    actual: record_shape.0,
                });
            }
            let seen = pending.entry(key.as_str()).or_insert(0);
            let file = format!("chunk-{:06}.bin", entry.chunks.len() + *seen);
            *seen += 1;
            let dir = self.root.join(&entry.dir);
            std::fs::create_dir_all(&dir)?;
            paths.push((dir.join(&file), file));
        }
        // Phase 2 (parallel): encode and write each chunk.
        let written: Vec<Result<u64, StoreError>> = pool::join_all(
            items
                .iter()
                .zip(paths.iter())
                .map(|((_, batch), (path, _))| {
                    Box::new(move || {
                        let bytes = {
                            let _sp = telemetry::span("store", "store.chunk_encode");
                            ser::encode(batch)
                        };
                        let _sp = telemetry::span("store", "store.chunk_write");
                        std::fs::write(path, &bytes)?;
                        Ok(bytes.len() as u64)
                    })
                        as Box<dyn FnOnce() -> Result<u64, StoreError> + Send + '_>
                })
                .collect(),
        );
        // Phase 3 (sequential): fold the chunk metadata into the manifest
        // in input order and persist it once, after every chunk landed.
        let mut sizes = Vec::with_capacity(items.len());
        for (((key, batch), (_, file)), result) in items.iter().zip(paths).zip(written) {
            let n = result?;
            let entry = self.manifest.keys.get_mut(key).expect("entry created in phase 1");
            let chunk_key = format!("{}/{file}", entry.dir);
            entry.chunks.push(ChunkMeta { file, records: batch.shape().dim(0), bytes: n });
            entry.records += batch.shape().dim(0);
            entry.bytes += n;
            {
                let mut cache = self.cache_lock();
                cache.write(&chunk_key, n);
                Self::publish_cache_gauge(&cache);
            }
            self.io.record_write(n);
            sizes.push(n);
        }
        self.persist_manifest()?;
        Ok(sizes)
    }

    /// Reads every record under `key` as one batched tensor, in append
    /// order. Returns the tensor and the number of bytes read.
    pub fn read_all(&self, key: &str) -> Result<(Tensor, u64), StoreError> {
        let _sp = telemetry::span("store", "store.read_all");
        let meta = self
            .manifest
            .keys
            .get(key)
            .ok_or_else(|| StoreError::MissingKey(key.to_string()))?;
        let dir = self.root.join(&meta.dir);
        // Chunk read + decode fans out over the pool; join_all returns
        // chunks in append order, so the concatenation is unchanged.
        let loaded: Vec<Result<(Tensor, u64), StoreError>> = pool::join_all(
            meta.chunks
                .iter()
                .map(|c| {
                    let path = dir.join(&c.file);
                    Box::new(move || load_chunk(&path, c.records, &meta.record_shape))
                        as Box<dyn FnOnce() -> Result<(Tensor, u64), StoreError> + Send + '_>
                })
                .collect(),
        );
        let mut parts = Vec::with_capacity(meta.chunks.len());
        let mut total = 0u64;
        for (c, r) in meta.chunks.iter().zip(loaded) {
            let (t, n) = r?;
            // Account in append order (deterministic LRU traffic).
            self.account_chunk_read(&format!("{}/{}", meta.dir, c.file), n);
            total += n;
            parts.push(t);
        }
        if parts.is_empty() {
            let shape = Shape::new(meta.record_shape.clone()).with_batch(0);
            return Ok((Tensor::zeros(shape), 0));
        }
        let out = Tensor::concat_outer(&parts).map_err(|e| StoreError::BadChunk(e.to_string()))?;
        Ok((out, total))
    }

    /// Reads records `[start, end)` under `key`, touching only the chunks
    /// that overlap the range. Returns the batched tensor and bytes read.
    ///
    /// Epoch scans use [`TensorStore::read_all`]; this ranged variant serves
    /// callers that stream mini-batches larger than memory.
    pub fn read_records(
        &self,
        key: &str,
        start: usize,
        end: usize,
    ) -> Result<(Tensor, u64), StoreError> {
        let _sp = telemetry::span("store", "store.read_records");
        let meta = self
            .manifest
            .keys
            .get(key)
            .ok_or_else(|| StoreError::MissingKey(key.to_string()))?;
        let end = end.min(meta.records);
        let start = start.min(end);
        let record = Shape::new(meta.record_shape.clone());
        if start == end {
            return Ok((Tensor::zeros(record.with_batch(0)), 0));
        }
        let dir = self.root.join(&meta.dir);
        // Collect the overlapping chunks, then read + decode + slice them
        // on the pool; results come back in chunk order.
        let mut offset = 0usize;
        let mut wanted: Vec<(PathBuf, usize, usize, usize)> = Vec::new();
        let mut chunk_keys: Vec<String> = Vec::new();
        for c in &meta.chunks {
            let chunk_range = offset..offset + c.records;
            offset += c.records;
            if chunk_range.end <= start || chunk_range.start >= end {
                continue;
            }
            let lo = start.saturating_sub(chunk_range.start);
            let hi = (end - chunk_range.start).min(c.records);
            wanted.push((dir.join(&c.file), c.records, lo, hi));
            chunk_keys.push(format!("{}/{}", meta.dir, c.file));
        }
        let loaded: Vec<Result<(Tensor, u64), StoreError>> = pool::join_all(
            wanted
                .into_iter()
                .map(|(path, records, lo, hi)| {
                    Box::new(move || {
                        let (t, n) = load_chunk(&path, records, &meta.record_shape)?;
                        let slices: Vec<Tensor> = (lo..hi).map(|i| t.outer_slice(i)).collect();
                        let part = Tensor::stack(&slices)
                            .map_err(|e| StoreError::BadChunk(e.to_string()))?;
                        Ok((part, n))
                    })
                        as Box<dyn FnOnce() -> Result<(Tensor, u64), StoreError> + Send + '_>
                })
                .collect(),
        );
        let mut parts = Vec::new();
        let mut bytes = 0u64;
        for (chunk_key, r) in chunk_keys.iter().zip(loaded) {
            let (part, n) = r?;
            self.account_chunk_read(chunk_key, n);
            bytes += n;
            parts.push(part);
        }
        let out =
            Tensor::concat_outer(&parts).map_err(|e| StoreError::BadChunk(e.to_string()))?;
        Ok((out, bytes))
    }

    /// True when the key exists (possibly with zero records).
    pub fn contains(&self, key: &str) -> bool {
        self.manifest.keys.contains_key(key)
    }

    /// Number of records stored under `key` (0 when absent).
    pub fn num_records(&self, key: &str) -> usize {
        self.manifest.keys.get(key).map_or(0, |m| m.records)
    }

    /// Bytes stored under `key` (0 when absent).
    pub fn bytes(&self, key: &str) -> u64 {
        self.manifest.keys.get(key).map_or(0, |m| m.bytes)
    }

    /// Record shape of `key`.
    pub fn record_shape(&self, key: &str) -> Option<Shape> {
        self.manifest.keys.get(key).map(|m| Shape::new(m.record_shape.clone()))
    }

    /// All keys in sorted order.
    pub fn keys(&self) -> Vec<String> {
        self.manifest.keys.keys().cloned().collect()
    }

    /// Total bytes across all keys.
    pub fn total_bytes(&self) -> u64 {
        self.manifest.keys.values().map(|m| m.bytes).sum()
    }

    /// Removes a key and its data; returns the bytes freed.
    pub fn delete(&mut self, key: &str) -> Result<u64, StoreError> {
        let Some(meta) = self.manifest.keys.remove(key) else { return Ok(0) };
        {
            let mut cache = self.cache_lock();
            for c in &meta.chunks {
                cache.invalidate(&format!("{}/{}", meta.dir, c.file));
            }
            Self::publish_cache_gauge(&cache);
        }
        let dir = self.root.join(&meta.dir);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        self.persist_manifest()?;
        Ok(meta.bytes)
    }

    /// Removes every key; returns the bytes freed.
    pub fn clear(&mut self) -> Result<u64, StoreError> {
        let keys = self.keys();
        let mut freed = 0;
        for k in keys {
            freed += self.delete(&k)?;
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_tensor::init::{randn, seeded_rng};

    fn temp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "nautilus-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn append_and_scan_round_trip() {
        let io = SharedIoStats::new();
        let root = temp_root("roundtrip");
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let mut rng = seeded_rng(1);
        let b1 = randn([3, 4], 1.0, &mut rng);
        let b2 = randn([2, 4], 1.0, &mut rng);
        s.append("layer0", &b1).unwrap();
        s.append("layer0", &b2).unwrap();
        assert_eq!(s.num_records("layer0"), 5);
        let (all, read) = s.read_all("layer0").unwrap();
        assert_eq!(all.shape().0, vec![5, 4]);
        assert_eq!(&all.data()[..12], b1.data());
        assert_eq!(&all.data()[12..], b2.data());
        assert!(read > 0);
        let st = io.snapshot();
        assert_eq!(st.write_ops, 2);
        // The appends admitted both chunks to the page-cache model, so the
        // scan is fully cache-served.
        assert!(st.total_read_bytes() >= read);
        assert_eq!(st.cached_read_bytes, read);
        assert_eq!(st.disk_read_bytes, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cold_reads_miss_then_hit_on_both_backends_counters() {
        let root = temp_root("pagecache");
        {
            let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
            s.append("k", &Tensor::ones([4, 8])).unwrap();
        }
        // Reopen: the page-cache model starts cold, like a fresh OS boot.
        let io = SharedIoStats::new();
        let s = TensorStore::open(&root, io.clone()).unwrap();
        let (_, n) = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, n, "cold read misses");
        assert_eq!(st.cached_read_bytes, 0);
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, n, "second read is cache-served");
        assert_eq!(st.cached_read_bytes, n);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zero_capacity_cache_counts_everything_as_disk() {
        let root = temp_root("nocache");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        s.set_page_cache_bytes(0);
        s.append("k", &Tensor::ones([4, 8])).unwrap();
        let (_, n) = s.read_all("k").unwrap();
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, 2 * n);
        assert_eq!(st.cached_read_bytes, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ranged_reads_touch_only_overlapping_chunks() {
        let io = SharedIoStats::new();
        let root = temp_root("ranged");
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        // Three chunks of 4 records each, values = record index.
        for c in 0..3 {
            let vals: Vec<f32> = (c * 4..(c + 1) * 4).map(|i| i as f32).collect();
            s.append("k", &Tensor::from_vec([4, 1], vals).unwrap()).unwrap();
        }
        // Range fully inside chunk 1.
        io.reset();
        let (t, bytes) = s.read_records("k", 5, 7).unwrap();
        assert_eq!(t.data(), &[5.0, 6.0]);
        let one_chunk = bytes;
        assert!(one_chunk > 0);
        // Range spanning chunks 0 and 1 reads exactly two chunks.
        let (t, bytes) = s.read_records("k", 2, 6).unwrap();
        assert_eq!(t.data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(bytes, 2 * one_chunk);
        // Clamped and empty ranges.
        let (t, _) = s.read_records("k", 10, 99).unwrap();
        assert_eq!(t.data(), &[10.0, 11.0]);
        let (t, bytes) = s.read_records("k", 3, 3).unwrap();
        assert_eq!(t.shape().dim(0), 0);
        assert_eq!(bytes, 0);
        // Whole range equals read_all.
        let (ranged, _) = s.read_records("k", 0, 12).unwrap();
        let (all, _) = s.read_all("k").unwrap();
        assert_eq!(ranged, all);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn append_many_matches_sequential_appends() {
        let mut rng = seeded_rng(9);
        let batches: Vec<(String, Tensor)> = vec![
            ("a".to_string(), randn([3, 4], 1.0, &mut rng)),
            ("b".to_string(), randn([2, 4], 1.0, &mut rng)),
            ("a".to_string(), randn([1, 4], 1.0, &mut rng)),
            ("c".to_string(), randn([5, 2], 1.0, &mut rng)),
        ];
        let root_seq = temp_root("many-seq");
        let mut seq = TensorStore::open(&root_seq, SharedIoStats::new()).unwrap();
        let seq_bytes: Vec<u64> =
            batches.iter().map(|(k, t)| seq.append(k, t).unwrap()).collect();
        let root_par = temp_root("many-par");
        let io = SharedIoStats::new();
        let mut par = TensorStore::open(&root_par, io.clone()).unwrap();
        let par_bytes = par.append_many(&batches).unwrap();
        assert_eq!(par_bytes, seq_bytes);
        assert_eq!(io.snapshot().write_ops, 4);
        for key in ["a", "b", "c"] {
            assert_eq!(par.num_records(key), seq.num_records(key), "records for {key}");
            let (pt, _) = par.read_all(key).unwrap();
            let (st, _) = seq.read_all(key).unwrap();
            assert_eq!(pt, st, "data for {key}");
        }
        // Reopen to prove the single manifest persist captured everything.
        drop(par);
        let reopened = TensorStore::open(&root_par, SharedIoStats::new()).unwrap();
        assert_eq!(reopened.num_records("a"), 4);
        std::fs::remove_dir_all(&root_seq).unwrap();
        std::fs::remove_dir_all(&root_par).unwrap();
    }

    #[test]
    fn reopen_preserves_manifest() {
        let io = SharedIoStats::new();
        let root = temp_root("reopen");
        {
            let mut s = TensorStore::open(&root, io.clone()).unwrap();
            s.append("k", &Tensor::ones([2, 3])).unwrap();
        }
        let s = TensorStore::open(&root, io).unwrap();
        assert_eq!(s.num_records("k"), 2);
        assert_eq!(s.record_shape("k"), Some(Shape::new([3])));
        let (t, _) = s.read_all("k").unwrap();
        assert_eq!(t.sum(), 6.0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn shape_mismatch_rejected() {
        let root = temp_root("mismatch");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("k", &Tensor::ones([2, 3])).unwrap();
        let err = s.append("k", &Tensor::ones([2, 4])).unwrap_err();
        assert!(matches!(err, StoreError::ShapeMismatch { .. }));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_key_and_delete() {
        let root = temp_root("delete");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        assert!(matches!(s.read_all("nope"), Err(StoreError::MissingKey(_))));
        assert_eq!(s.num_records("nope"), 0);
        s.append("k", &Tensor::ones([4, 2])).unwrap();
        let freed = s.delete("k").unwrap();
        assert!(freed > 0);
        assert!(!s.contains("k"));
        assert_eq!(s.delete("k").unwrap(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let root = temp_root("collide");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("model/layer:1", &Tensor::ones([1, 2])).unwrap();
        s.append("model/layer:2", &Tensor::zeros([1, 2])).unwrap();
        let (a, _) = s.read_all("model/layer:1").unwrap();
        let (b, _) = s.read_all("model/layer:2").unwrap();
        assert_eq!(a.sum(), 2.0);
        assert_eq!(b.sum(), 0.0);
        assert_eq!(s.keys().len(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn total_bytes_and_clear() {
        let root = temp_root("clear");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("a", &Tensor::ones([2, 2])).unwrap();
        s.append("b", &Tensor::ones([2, 2])).unwrap();
        let total = s.total_bytes();
        assert!(total > 0);
        assert_eq!(s.clear().unwrap(), total);
        assert_eq!(s.total_bytes(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn page_cache_resize_preserves_warm_entries_and_accounting() {
        let root = temp_root("resize");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        s.append("k", &Tensor::ones([8, 16])).unwrap();
        let (_, n) = s.read_all("k").unwrap(); // warm (admitted at append)
        let before = s.cache_stats();
        assert_eq!(before.hit_bytes, n);
        // Growing the cache mid-run must not cool warm chunks or reset the
        // cumulative hit/miss curve (the old code rebuilt the model from
        // scratch, discarding both).
        s.set_page_cache_bytes(DEFAULT_PAGE_CACHE_BYTES * 2);
        let _ = s.read_all("k").unwrap();
        let st = io.snapshot();
        assert_eq!(st.disk_read_bytes, 0, "warm chunk stayed warm across resize");
        assert_eq!(st.cached_read_bytes, 2 * n);
        let after = s.cache_stats();
        assert_eq!(after.hit_bytes, 2 * n, "cumulative stats survive the resize");
        // Shrinking to zero evicts everything but still keeps the curve.
        s.set_page_cache_bytes(0);
        let _ = s.read_all("k").unwrap();
        assert_eq!(io.snapshot().disk_read_bytes, n);
        assert_eq!(s.cache_stats().miss_bytes, after.miss_bytes + n);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cache_lock_poisoning_does_not_cascade() {
        let root = temp_root("poison");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        s.append("k", &Tensor::ones([4, 8])).unwrap();
        // Poison the cache mutex: a thread panics while holding it.
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = s.cache.lock().unwrap();
                    panic!("injected panic while holding the cache lock");
                })
                .join()
                .is_err()
        });
        assert!(poisoned, "the injected panic must have fired");
        assert!(s.cache.is_poisoned(), "the lock must actually be poisoned");
        // Every store operation keeps working: reads, accounting, appends,
        // resizes, deletes.
        let (t, n) = s.read_all("k").unwrap();
        assert_eq!(t.shape().0, vec![4, 8]);
        assert!(n > 0);
        assert!(io.snapshot().total_read_bytes() >= n);
        s.set_page_cache_bytes(1 << 20);
        s.append("k", &Tensor::ones([2, 8])).unwrap();
        assert_eq!(s.num_records("k"), 6);
        assert!(s.delete("k").unwrap() > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn append_many_survives_drop_and_reopen() {
        let mut rng = seeded_rng(21);
        let batches: Vec<(String, Tensor)> = vec![
            ("a".to_string(), randn([3, 4], 1.0, &mut rng)),
            ("b".to_string(), randn([2, 4], 1.0, &mut rng)),
            ("a".to_string(), randn([1, 4], 1.0, &mut rng)),
        ];
        let root = temp_root("many-reopen");
        let io = SharedIoStats::new();
        let mut s = TensorStore::open(&root, io.clone()).unwrap();
        let sizes = s.append_many(&batches).unwrap();
        assert_eq!(io.snapshot().write_ops, 3);
        assert_eq!(sizes.iter().sum::<u64>(), io.snapshot().disk_write_bytes);
        let before: Vec<Tensor> =
            ["a", "b"].iter().map(|k| s.read_all(k).unwrap().0).collect();
        drop(s);
        // Every chunk is on disk once `append_many` returns.
        let reopened = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        assert_eq!(reopened.num_records("a"), 4);
        assert_eq!(reopened.bytes("a") + reopened.bytes("b"), sizes.iter().sum::<u64>());
        for (k, want) in ["a", "b"].iter().zip(&before) {
            let (t, _) = reopened.read_all(k).unwrap();
            assert_eq!(&t, want, "data for {k}");
        }
        let (a, _) = reopened.read_all("a").unwrap();
        assert_eq!(&a.data()[..12], batches[0].1.data());
        assert_eq!(&a.data()[12..], batches[2].1.data());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn oversized_chunk_header_is_a_bad_chunk_not_an_abort() {
        let root = temp_root("badhdr");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("k", &Tensor::ones([2, 3])).unwrap();
        // Overwrite the chunk with a header claiming rank u32::MAX.
        let chunk = s.chunk_plan("k").unwrap()[0].path.clone();
        let mut hdr = b"NTSR".to_vec();
        hdr.extend_from_slice(&1u32.to_le_bytes());
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&chunk, &hdr).unwrap();
        assert!(matches!(s.read_all("k"), Err(StoreError::BadChunk(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A chunk whose decoded shape disagrees with its manifest entry is a
    /// bad chunk to both readers: not a short read, a misshapen read, or
    /// an out-of-range slice.
    #[test]
    fn chunk_disagreeing_with_its_manifest_entry_is_a_bad_chunk() {
        let root = temp_root("mismatch");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("k", &Tensor::ones([3, 2])).unwrap();
        let chunk = s.chunk_plan("k").unwrap()[0].path.clone();
        // Too few records, then the right count of the wrong record shape.
        for wrong in [Tensor::ones([1, 2]), Tensor::ones([3, 5])] {
            std::fs::write(&chunk, ser::encode(&wrong)).unwrap();
            assert!(matches!(s.read_all("k"), Err(StoreError::BadChunk(_))));
            assert!(matches!(s.read_records("k", 0, 3), Err(StoreError::BadChunk(_))));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `open` is total over a corrupted `manifest.json`: truncations, bit
    /// flips, spliced random bytes and numbers replaced by extreme values
    /// give an error or a store, never a panic; a store that opens reads
    /// every key without panicking; and every strict prefix of a valid
    /// manifest is an error.
    #[test]
    fn open_is_total_over_manifest_byte_soup() {
        use nautilus_util::prop::{mutations_of, prop_check};

        const NUMBERS: [&str; 6] =
            ["0", "1", "4", "4294967296", "18446744073709551615", "99999999999999999999"];
        let root = temp_root("soup");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("a", &Tensor::ones([3, 2])).unwrap();
        s.append("a", &Tensor::ones([2, 2])).unwrap();
        s.append("b", &Tensor::ones([1, 4])).unwrap();
        drop(s);
        let path = root.join("manifest.json");
        let valid = std::fs::read(&path).unwrap();
        prop_check(0x5707_0001, 300, &mutations_of(valid.clone(), &NUMBERS), |bytes| {
            std::fs::write(&path, bytes).unwrap();
            if let Ok(s) = TensorStore::open(&root, SharedIoStats::new()) {
                for key in s.keys() {
                    let _ = s.read_all(&key);
                    let _ = s.read_records(&key, 1, 4);
                }
            }
            Ok(())
        });
        for cut in 0..valid.len() {
            std::fs::write(&path, &valid[..cut]).unwrap();
            let opened = TensorStore::open(&root, SharedIoStats::new());
            assert!(opened.is_err(), "prefix of {cut} bytes opened");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A manifest naming a directory or chunk outside the store is
    /// rejected at open, before `delete` could remove what it names, and so
    /// is a key whose record count is not the sum of its chunks'.
    #[test]
    fn inconsistent_manifest_entries_are_rejected() {
        let root = temp_root("escape");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("k", &Tensor::ones([1, 2])).unwrap();
        s.append("k", &Tensor::ones([2, 2])).unwrap();
        drop(s);
        let path = root.join("manifest.json");
        let valid = std::fs::read_to_string(&path).unwrap();
        let dir = dir_for("k");
        for (from, to) in [
            (format!("\"{dir}\""), "\"..\"".to_string()),
            (format!("\"{dir}\""), "\"/tmp\"".to_string()),
            (format!("\"{dir}\""), "\"a/b\"".to_string()),
            ("\"chunk-000000.bin\"".to_string(), "\"../manifest.json\"".to_string()),
            ("\"records\": 3".to_string(), "\"records\": 4".to_string()),
        ] {
            assert!(valid.contains(&from), "{from} not in {valid}");
            std::fs::write(&path, valid.replacen(&from, &to, 1)).unwrap();
            let opened = TensorStore::open(&root, SharedIoStats::new());
            assert!(matches!(opened, Err(StoreError::BadManifest(_))), "{to} accepted");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn chunk_plan_exposes_append_order_layout() {
        let root = temp_root("plan");
        let mut s = TensorStore::open(&root, SharedIoStats::new()).unwrap();
        s.append("k", &Tensor::ones([3, 2])).unwrap();
        s.append("k", &Tensor::ones([2, 2])).unwrap();
        let chunks = s.chunk_plan("k").unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].records, 3);
        assert_eq!(chunks[1].records, 2);
        assert!(chunks[0].path.exists());
        assert!(chunks[0].path.ends_with("chunk-000000.bin"));
        assert!(matches!(s.chunk_plan("nope"), Err(StoreError::MissingKey(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
