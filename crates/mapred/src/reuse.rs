//! Cross-query result reuse — the ReStore idea over YSmart chains.
//!
//! *ReStore: Reusing Results of MapReduce Jobs* materializes sub-job
//! outputs and rewrites later jobs to read them instead of recomputing.
//! This module is that layer for the simulated cluster: committed job
//! outputs stay materialized in [`Hdfs`] under fingerprint-addressed
//! `reuse/<fp>` paths, and the multi-tenant scheduler fast-forwards any
//! *prefix* of an incoming chain whose job fingerprints hit the cache,
//! through the same [`crate::chain::ChainSession::set_replay`] machinery
//! crash recovery uses — so a hit restores the recorded output bytes and
//! applies the recorded metrics bit-identically to having executed.
//!
//! Soundness rests on three guards:
//!
//! * **Fingerprints** ([`crate::job::JobSpec::fingerprint`]) bind the
//!   blueprint structure *and* the identity of every input (producer
//!   fingerprints for intermediates, content checksums for base tables);
//!   jobs whose input identity cannot be established carry `None` and are
//!   never cached or reused.
//! * **Epochs**: the cache is scoped to one cluster configuration. A
//!   config change ([`ReuseCache::ensure_epoch`]) drops every entry, since
//!   cost-model and format knobs change the bytes and metrics a hit would
//!   replay.
//! * **Integrity**: every hit re-verifies the cached file's XXH64 content
//!   checksum, with at-rest corruption drawn from the cluster's seeded
//!   [`CorruptionModel`] genuinely flipping a bit first. A mismatch evicts
//!   the entry and reports a miss — the chain re-executes, so corruption
//!   costs time, never answers.
//!
//! Capacity pressure is relieved by GreedyDual-Size-Frequency eviction:
//! each entry's priority is `H = L + f·c/s` (hits plus one, saved work,
//! bytes), insertion evicts the unpinned entry with the lowest `H`, and the
//! cache-owned inflation `L` rises to each capacity victim's `H`, so an
//! entry hit often long ago ages out. No simulated time enters the policy:
//! a service's scheduler clock restarts with every batch, and recency on
//! those instants is not ordered across batches. All cache decisions happen
//! in the scheduler's single-threaded event loop, so behaviour is
//! bit-identical across `exec_threads` settings.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{ClusterConfig, CorruptionModel};
use crate::hash::checksum_bytes;
use crate::hdfs::{file_bytes, DataFile, Hdfs};
use crate::metrics::JobMetrics;

/// Configuration of the result-reuse cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseConfig {
    /// Total bytes of cached outputs kept materialized in HDFS. `0`
    /// disables caching: nothing is ever inserted, every lookup misses —
    /// the byte-identical baseline the CI gate pins.
    pub capacity_bytes: u64,
}

impl ReuseConfig {
    /// A cache bounded at `capacity_bytes`.
    #[must_use]
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        ReuseConfig { capacity_bytes }
    }
}

/// Counters of one cache's lifetime, surfaced in
/// [`crate::scheduler::WorkloadReport::reuse`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReuseStats {
    /// Lookups that returned a verified cached output.
    pub hits: u64,
    /// Lookups that found no entry (including fingerprint-less jobs never
    /// reaching the cache is *not* counted here — only real lookups).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Hits rejected because the cached bytes failed checksum
    /// verification; each also evicts the damaged entry.
    pub integrity_failures: u64,
    /// Bytes currently cached (live gauge, not a counter).
    pub bytes_cached: u64,
    /// Simulated execution seconds the hits avoided (recorded job time
    /// minus scheduling delay, summed over hits).
    pub reused_work_s: f64,
}

impl ReuseStats {
    /// Hit rate over all lookups, in `[0, 1]`; `0` when no lookups ran.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached job output.
#[derive(Debug, Clone)]
struct Entry {
    /// Fingerprint-addressed HDFS path holding the materialized output.
    path: String,
    /// Content checksum taken at insert time, verified on every hit.
    checksum: u64,
    /// Size of the materialized file.
    bytes: u64,
    /// The committed job's recorded metrics, replayed on a hit.
    metrics: JobMetrics,
    /// Verified hits served; the GDSF frequency is `hits + 1`.
    hits: u64,
    /// GDSF priority `H = L + f·c/s`, set at insert and on every hit — the
    /// eviction key (lowest first).
    priority: f64,
    /// Monotonic tiebreak for equal priorities, and the salt of the at-rest
    /// corruption draw (a re-inserted fingerprint draws fresh).
    seq: u64,
    /// In-flight readers; a pinned entry is never evicted.
    pins: u32,
}

/// The cross-query result-reuse cache. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ReuseCache {
    config: Option<ReuseConfig>,
    entries: BTreeMap<u64, Entry>,
    stats: ReuseStats,
    seq: u64,
    epoch: Option<u64>,
    /// GDSF inflation `L`: the priority of the last capacity victim, so
    /// newcomers start level with what was just evicted (reset per epoch).
    inflation: f64,
}

/// The epoch a cluster configuration defines: any config change — cost
/// model, data format, corruption seed — yields a different epoch and
/// therefore an empty cache.
#[must_use]
pub fn config_epoch(config: &ClusterConfig) -> u64 {
    checksum_bytes(format!("{config:?}").as_bytes())
}

/// The fingerprint-addressed HDFS path of a cached output.
#[must_use]
pub fn reuse_path(fingerprint: u64) -> String {
    format!("reuse/{fingerprint:016x}")
}

impl ReuseCache {
    /// An empty cache with the given capacity.
    #[must_use]
    pub fn new(config: ReuseConfig) -> Self {
        ReuseCache {
            config: Some(config),
            ..ReuseCache::default()
        }
    }

    /// The configured capacity in bytes (0 when constructed `Default`).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.config.map_or(0, |c| c.capacity_bytes)
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a fingerprint is cached.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Scopes the cache to `epoch` (see [`config_epoch`]): on a change,
    /// every cached file is deleted from `hdfs` and the entries dropped.
    /// Counters survive — they describe the cache's lifetime, not one
    /// epoch.
    pub fn ensure_epoch(&mut self, hdfs: &mut Hdfs, epoch: u64) {
        if self.epoch == Some(epoch) {
            return;
        }
        for entry in self.entries.values() {
            hdfs.delete(&entry.path);
        }
        self.stats.bytes_cached = 0;
        self.entries.clear();
        self.epoch = Some(epoch);
        self.inflation = 0.0;
    }

    /// Looks up a fingerprint, verifying the cached bytes before serving
    /// them. At-rest corruption is drawn from `corruption` per `(seed,
    /// fingerprint, entry seq)` and genuinely flips a bit of the candidate
    /// bytes; detection is the real checksum comparison against the
    /// insert-time stamp. A damaged entry is evicted and reported as a
    /// miss, so the caller re-executes. A hit raises the entry's priority.
    pub fn lookup(
        &mut self,
        hdfs: &mut Hdfs,
        fingerprint: u64,
        corruption: Option<&CorruptionModel>,
    ) -> Option<(DataFile, JobMetrics)> {
        let Some(entry) = self.entries.get_mut(&fingerprint) else {
            self.stats.misses += 1;
            return None;
        };
        let Ok(file) = hdfs.get(&entry.path) else {
            // The materialized file vanished out from under the entry
            // (defensive: nothing in-tree deletes reuse/ paths directly).
            let dead = self.entries.remove(&fingerprint).expect("entry exists");
            self.stats.bytes_cached -= dead.bytes;
            self.stats.misses += 1;
            return None;
        };
        let mut candidate = file_bytes(file);
        if let Some(model) = corruption {
            const SPLITMIX: u64 = 0x9E37_79B9_7F4A_7C15;
            let seed = model.seed
                ^ fingerprint.wrapping_mul(SPLITMIX)
                ^ (entry.seq + 0xCAC4E).wrapping_mul(SPLITMIX);
            let mut rng = StdRng::seed_from_u64(seed);
            if model.block_rate > 0.0
                && !candidate.is_empty()
                && rng.gen::<f64>() < model.block_rate
            {
                let bit = rng.gen::<u64>() as usize % (candidate.len() * 8);
                candidate[bit / 8] ^= 1 << (bit % 8);
            }
        }
        if checksum_bytes(&candidate) != entry.checksum {
            let dead = self.entries.remove(&fingerprint).expect("entry exists");
            hdfs.delete(&dead.path);
            self.stats.bytes_cached -= dead.bytes;
            self.stats.integrity_failures += 1;
            self.stats.misses += 1;
            return None;
        }
        // Only the priority advances; the entry keeps its insertion seq
        // (it salts the at-rest corruption draw).
        entry.hits += 1;
        entry.priority = priority(self.inflation, entry);
        let result = (file.clone(), entry.metrics.clone());
        self.stats.hits += 1;
        self.stats.reused_work_s += saved_work_s(&entry.metrics);
        Some(result)
    }

    /// Inserts a committed job output, materializing it in `hdfs` under
    /// [`reuse_path`]. No-ops when the capacity is 0, the fingerprint is
    /// already cached (recovery replays re-commit the same jobs), or the
    /// file cannot fit even after evicting every unpinned entry — checked
    /// before evicting anything, so a file that will not fit never empties
    /// the cache on its way to being skipped.
    pub fn insert(
        &mut self,
        hdfs: &mut Hdfs,
        fingerprint: u64,
        file: DataFile,
        metrics: JobMetrics,
    ) {
        let capacity = self.capacity_bytes();
        if capacity == 0 || self.entries.contains_key(&fingerprint) {
            return;
        }
        let bytes = file.bytes();
        let pinned: u64 = self
            .entries
            .values()
            .filter(|e| e.pins > 0)
            .map(|e| e.bytes)
            .sum();
        if pinned + bytes > capacity {
            return;
        }
        while self.stats.bytes_cached + bytes > capacity {
            if !self.evict_lowest(hdfs) {
                return;
            }
        }
        let path = reuse_path(fingerprint);
        hdfs.put_data(&path, file);
        let checksum = hdfs.checksum(&path).expect("stored above");
        self.seq += 1;
        let mut entry = Entry {
            path,
            checksum,
            bytes,
            metrics,
            hits: 0,
            priority: 0.0,
            seq: self.seq,
            pins: 0,
        };
        entry.priority = priority(self.inflation, &entry);
        self.entries.insert(fingerprint, entry);
        self.stats.insertions += 1;
        self.stats.bytes_cached += bytes;
    }

    /// Evicts the unpinned entry with the lowest priority (oldest `seq` on
    /// ties) and raises the inflation to its priority; `false` when every
    /// entry is pinned (or the cache is empty).
    fn evict_lowest(&mut self, hdfs: &mut Hdfs) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0)
            .min_by(|(_, a), (_, b)| a.priority.total_cmp(&b.priority).then(a.seq.cmp(&b.seq)))
            .map(|(fp, _)| *fp);
        let Some(fp) = victim else {
            return false;
        };
        let dead = self.entries.remove(&fp).expect("victim exists");
        self.inflation = dead.priority;
        hdfs.delete(&dead.path);
        self.stats.bytes_cached -= dead.bytes;
        self.stats.evictions += 1;
        true
    }

    /// Marks a fingerprint as having an in-flight reader; pinned entries
    /// are never evicted. Unknown fingerprints are ignored.
    pub fn pin(&mut self, fingerprint: u64) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            e.pins += 1;
        }
    }

    /// Releases one pin (saturating; unknown fingerprints are ignored —
    /// the entry may have been integrity-evicted while pinned readers were
    /// already holding its cloned bytes).
    pub fn unpin(&mut self, fingerprint: u64) {
        if let Some(e) = self.entries.get_mut(&fingerprint) {
            e.pins = e.pins.saturating_sub(1);
        }
    }
}

/// Simulated execution seconds a hit on `metrics` avoids: the recorded
/// job time minus its scheduling delay.
fn saved_work_s(metrics: &JobMetrics) -> f64 {
    metrics.total_s() - metrics.startup_delay_s
}

/// The GDSF priority `L + f·c/s` of `entry` under inflation `L`.
fn priority(inflation: f64, entry: &Entry) -> f64 {
    let frequency = (entry.hits + 1) as f64;
    inflation + frequency * saved_work_s(&entry.metrics) / entry.bytes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(lines: &[&str]) -> DataFile {
        DataFile {
            lines: lines.iter().map(|s| (*s).to_string()).collect(),
            frames: Vec::new(),
        }
    }

    fn metrics(total: f64) -> JobMetrics {
        JobMetrics {
            map_time_s: total,
            ..JobMetrics::default()
        }
    }

    #[test]
    fn round_trips_and_counts() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        assert!(cache.lookup(&mut hdfs, 7, None).is_none());
        cache.insert(&mut hdfs, 7, text(&["a|1", "b|2"]), metrics(3.0));
        assert!(cache.contains(7));
        assert!(hdfs.exists(&reuse_path(7)));
        let (file, m) = cache.lookup(&mut hdfs, 7, None).unwrap();
        assert_eq!(file.lines, vec!["a|1".to_string(), "b|2".to_string()]);
        assert!((m.total_s() - 3.0).abs() < 1e-12);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.reused_work_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_never_caches() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(0));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        assert!(cache.is_empty());
        assert_eq!(hdfs.total_bytes(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn evicts_coldest_first() {
        let mut hdfs = Hdfs::new();
        // Each file is 2 bytes ("x\n"); capacity fits exactly two.
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        cache.insert(&mut hdfs, 2, text(&["y"]), metrics(1.0));
        // Hit 1 so 2 becomes the victim.
        cache.lookup(&mut hdfs, 1, None).unwrap();
        cache.insert(&mut hdfs, 3, text(&["z"]), metrics(1.0));
        assert!(cache.contains(1) && cache.contains(3) && !cache.contains(2));
        assert!(!hdfs.exists(&reuse_path(2)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes_cached, 4);
        assert!(hdfs.accounting_reconciled());
    }

    #[test]
    fn size_aware_evicts_large_cheap_before_small_expensive() {
        let mut hdfs = Hdfs::new();
        // 10 bytes saving 1 s vs 2 bytes saving 5 s; room for both only.
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(12));
        cache.insert(&mut hdfs, 2, text(&["x"]), metrics(5.0));
        cache.insert(&mut hdfs, 3, text(&["large-one"]), metrics(1.0));
        // The small expensive entry is the older one: recency alone would
        // pick it.
        cache.insert(&mut hdfs, 4, text(&["y"]), metrics(5.0));
        assert!(cache.contains(2), "small, expensive entry must stay");
        assert!(!cache.contains(3), "large, cheap entry goes first");
        assert!(cache.contains(4));
    }

    #[test]
    fn frequency_beats_recency() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        cache.lookup(&mut hdfs, 1, None).unwrap();
        // 2 is newer than 1's hit, but was never hit itself.
        cache.insert(&mut hdfs, 2, text(&["y"]), metrics(1.0));
        cache.insert(&mut hdfs, 3, text(&["z"]), metrics(1.0));
        assert!(
            cache.contains(1),
            "the hit entry outlives the equal cold one"
        );
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
    }

    #[test]
    fn inflation_ages_out_old_frequent_entries() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        for _ in 0..3 {
            cache.lookup(&mut hdfs, 1, None).unwrap();
        }
        // A stream of one-off entries: each eviction raises L to the
        // victim's priority, so newcomers climb until 1's old hits no
        // longer protect it.
        let mut evicted_after = None;
        for fp in 100..120 {
            cache.insert(&mut hdfs, fp, text(&["y"]), metrics(1.0));
            if !cache.contains(1) {
                evicted_after = Some(fp - 99);
                break;
            }
        }
        let n = evicted_after.expect("an old, often-hit entry must age out");
        assert!(n > 1, "its hits protect it at first");
        assert_eq!(cache.stats().evictions, n - 1, "the first one-off fit");
        // With L reset by an epoch change, a fresh entry starts from zero.
        cache.ensure_epoch(&mut hdfs, 9);
        assert_eq!(cache.inflation, 0.0);
    }

    #[test]
    fn pinned_entry_survives_pressure() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(4));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        cache.insert(&mut hdfs, 2, text(&["y"]), metrics(1.0));
        // 1 is the colder entry but a reader holds it pinned.
        cache.pin(1);
        cache.insert(&mut hdfs, 3, text(&["z"]), metrics(1.0));
        assert!(cache.contains(1), "pinned entry must not be evicted");
        assert!(!cache.contains(2), "pressure falls on the unpinned coldest");
        assert!(cache.contains(3));
        cache.unpin(1);
        cache.insert(&mut hdfs, 4, text(&["w"]), metrics(1.0));
        assert!(!cache.contains(1), "unpinned, 1 is again evictable");
    }

    #[test]
    fn everything_pinned_skips_insert() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(2));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        cache.pin(1);
        cache.insert(&mut hdfs, 2, text(&["y"]), metrics(1.0));
        assert!(cache.contains(1) && !cache.contains(2));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn insert_that_cannot_fit_evicts_nothing() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(8));
        cache.insert(&mut hdfs, 1, text(&["x"]), metrics(1.0));
        cache.insert(&mut hdfs, 2, text(&["y"]), metrics(1.0));
        cache.pin(1);
        // 7 bytes fit beside nothing but the pinned 2: evicting 2 would
        // not make room, so it must stay.
        cache.insert(&mut hdfs, 3, text(&["large!"]), metrics(9.0));
        assert!(cache.contains(1) && cache.contains(2) && !cache.contains(3));
        assert_eq!(cache.stats().evictions, 0);
        cache.unpin(1);
        cache.insert(&mut hdfs, 3, text(&["large!"]), metrics(9.0));
        assert!(cache.contains(3), "with 1 unpinned there is room");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn corrupt_entry_is_rejected_and_evicted() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        cache.insert(&mut hdfs, 9, text(&["payload"]), metrics(2.0));
        let certain = CorruptionModel::uniform(1.0, 42);
        assert!(
            cache.lookup(&mut hdfs, 9, Some(&certain)).is_none(),
            "a flipped bit must fail verification"
        );
        assert!(!cache.contains(9));
        assert!(!hdfs.exists(&reuse_path(9)));
        let s = cache.stats();
        assert_eq!((s.integrity_failures, s.hits, s.misses), (1, 0, 1));
        // Clean model: a fresh insert serves again (new seq, fresh draw).
        cache.insert(&mut hdfs, 9, text(&["payload"]), metrics(2.0));
        let clean = CorruptionModel::uniform(0.0, 42);
        assert!(cache.lookup(&mut hdfs, 9, Some(&clean)).is_some());
    }

    #[test]
    fn epoch_change_clears_entries_and_hdfs() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(1 << 20));
        cache.ensure_epoch(&mut hdfs, 1);
        cache.insert(&mut hdfs, 5, text(&["a"]), metrics(1.0));
        cache.ensure_epoch(&mut hdfs, 1);
        assert!(cache.contains(5), "same epoch keeps entries");
        cache.ensure_epoch(&mut hdfs, 2);
        assert!(cache.is_empty());
        assert_eq!(hdfs.total_bytes(), 0);
        assert_eq!(cache.stats().bytes_cached, 0);
        assert!(hdfs.accounting_reconciled());
    }

    #[test]
    fn config_epoch_tracks_config_changes() {
        let a = ClusterConfig::default();
        let mut b = ClusterConfig::default();
        b.size_multiplier *= 2.0;
        assert_eq!(config_epoch(&a), config_epoch(&ClusterConfig::default()));
        assert_ne!(config_epoch(&a), config_epoch(&b));
    }

    #[test]
    fn oversized_file_is_not_cached() {
        let mut hdfs = Hdfs::new();
        let mut cache = ReuseCache::new(ReuseConfig::with_capacity(3));
        cache.insert(&mut hdfs, 1, text(&["too-big"]), metrics(1.0));
        assert!(cache.is_empty());
        assert_eq!(hdfs.total_bytes(), 0);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let mut s = ReuseStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
