//! Layer 4: the shared result cache.
//!
//! An LRU map from *cache key* to a finished execution, shared by every
//! session. The key is the [`normalized`](assess_core::stmt::normalize)
//! statement text joined with a [`policy_fingerprint`]: two requests whose
//! statements differ only in whitespace, comments or keyword case — and
//! whose effective limits match — share one entry. The server looks the
//! key up before it parses the statement, so two texts share a key only
//! if they lex to the same tokens (`normalize` keeps `;` and exponent
//! signs), up to the case of an identifier spelled like a keyword.
//!
//! Entries are validated against the catalog's seqlock-style mutation
//! counter ([`Catalog::version`](olap_storage::Catalog::version)): each
//! entry records the (even) version it was computed under, a lookup under
//! any other version removes the entry, and an insert is refused when a
//! mutation was in flight (odd version) or the version moved during the
//! run. This check is the cache's only invalidation.
//!
//! Appends are gentler than the version check alone would be:
//! [`ResultCache::apply_delta`] carries the cache across one committed
//! append, **patching** forward (re-stamping to the post-append version)
//! every entry whose stored value the append provably cannot change and
//! evicting only the rest. The cache does not decide which values those
//! are: the caller passes the test. The server's test asks whether every
//! query the statement ran reads another fact table or is `Disjoint` from
//! the appended rows' selection (`CubeQuery::relate`).
//!
//! The cache is generic over the stored value so the LRU/counter protocol
//! is testable without building real assessed cubes; the server stores
//! [`server::CachedResult`](crate::server::CachedResult).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use assess_core::ExecutionPolicy;
use assess_core::Strategy;

/// Joins the policy fingerprint and the normalized statement into one
/// cache key. A normalized statement may hold `\u{1}` (`normalize` keeps a
/// control character as a token of its own), but a fingerprint never does:
/// it is printable ASCII. So the first `\u{1}` ends the fingerprint, and
/// the pairing is unambiguous.
pub fn cache_key(normalized_statement: &str, fingerprint: &str) -> String {
    format!("{fingerprint}\u{1}{normalized_statement}")
}

/// A stable text encoding of everything about a policy (and a pinned
/// strategy, if any) that selects a different execution. The cancel token
/// is deliberately excluded — it is per-request plumbing, not semantics.
pub fn policy_fingerprint(policy: &ExecutionPolicy, strategy: Option<Strategy>) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
    format!(
        "d={};r={};c={};s={}",
        policy.deadline.map_or_else(|| "-".to_string(), |d| d.as_millis().to_string()),
        opt(policy.max_rows_scanned),
        opt(policy.max_output_cells),
        strategy.map_or("auto", |s| s.acronym()),
    )
}

/// Counter snapshot for the `stats` op and the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Entries re-stamped across an append delta that could not affect them.
    pub patches: u64,
    pub len: usize,
    pub capacity: usize,
}

struct Entry<T> {
    value: Arc<T>,
    /// The (even) catalog version the value was computed under.
    version: u64,
    /// LRU clock reading of the last hit (or the insert).
    last_used: u64,
}

struct Inner<T> {
    entries: HashMap<String, Entry<T>>,
    /// Monotonic LRU clock; bumped on every hit and insert.
    tick: u64,
}

/// A thread-safe LRU result cache. Capacity 0 disables caching entirely
/// (every lookup is a miss, inserts are dropped).
pub struct ResultCache<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    patches: AtomicU64,
}

impl<T> ResultCache<T> {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner { entries: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            patches: AtomicU64::new(0),
        }
    }

    /// The cache only holds plain data behind `Arc`s, so a panicking
    /// holder cannot leave a torn state; recover from poisoning.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Looks up a key under the caller's current catalog version. An entry
    /// computed under a different version is stale: it is removed, counted
    /// as an invalidation, and reported as a miss.
    pub fn lookup(&self, key: &str, catalog_version: u64) -> Option<Arc<T>> {
        let mut inner = self.lock();
        match inner.entries.get(key) {
            Some(entry) if entry.version == catalog_version => {
                inner.tick += 1;
                let tick = inner.tick;
                let entry = inner.entries.get_mut(key).expect("present above");
                entry.last_used = tick;
                let value = entry.value.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                inner.entries.remove(key);
                drop(inner);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value computed under `catalog_version`. Refused (silently)
    /// when the version is odd — a catalog mutation was in flight while the
    /// result was computed, so the result may mix old and new contents.
    /// At capacity, the least-recently-used entry is evicted.
    pub fn insert(&self, key: String, value: T, catalog_version: u64) {
        if self.capacity == 0 || !catalog_version.is_multiple_of(2) {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            // O(len) scan; serving caches are small (tens to hundreds of
            // entries), so a linked-list LRU would be complexity for free.
            if let Some(oldest) =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.entries.insert(
            key,
            Entry { value: Arc::new(value), version: catalog_version, last_used: tick },
        );
    }

    /// Carries the cache across one committed append that settled at
    /// `version`: entries computed under the immediately preceding version
    /// whose value `survives` are re-stamped to `version` (counted as
    /// patches); the others are evicted (counted as invalidations). Entries
    /// at other versions are left for the lookup path's staleness check.
    /// Returns `(patched, evicted)`.
    pub fn apply_delta(&self, version: u64, survives: impl Fn(&T) -> bool) -> (usize, usize) {
        let predecessor = version.wrapping_sub(2);
        let mut patched = 0usize;
        let mut evicted = 0usize;
        let mut inner = self.lock();
        inner.entries.retain(|_, entry| {
            if entry.version != predecessor {
                return true;
            }
            if survives(&entry.value) {
                entry.version = version;
                patched += 1;
                true
            } else {
                evicted += 1;
                false
            }
        });
        drop(inner);
        self.patches.fetch_add(patched as u64, Ordering::Relaxed);
        self.invalidations.fetch_add(evicted as u64, Ordering::Relaxed);
        (patched, evicted)
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            len: self.lock().entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hit_and_miss_counters() {
        let cache: ResultCache<String> = ResultCache::new(4);
        assert!(cache.lookup("k", 0).is_none());
        cache.insert("k".into(), "v".into(), 0);
        assert_eq!(cache.lookup("k", 0).as_deref(), Some(&"v".to_string()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache: ResultCache<u32> = ResultCache::new(2);
        cache.insert("a".into(), 1, 0);
        cache.insert("b".into(), 2, 0);
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.lookup("a", 0).is_some());
        cache.insert("c".into(), 3, 0);
        assert!(cache.lookup("a", 0).is_some());
        assert!(cache.lookup("b", 0).is_none());
        assert!(cache.lookup("c", 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache: ResultCache<u32> = ResultCache::new(2);
        cache.insert("a".into(), 1, 0);
        cache.insert("b".into(), 2, 0);
        cache.insert("a".into(), 10, 0);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup("a", 0).as_deref(), Some(&10));
        assert_eq!(cache.lookup("b", 0).as_deref(), Some(&2));
    }

    #[test]
    fn version_change_invalidates() {
        let cache: ResultCache<u32> = ResultCache::new(4);
        cache.insert("k".into(), 7, 2);
        assert!(cache.lookup("k", 2).is_some());
        // Catalog moved on: the entry is stale and gets dropped.
        assert!(cache.lookup("k", 4).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Dropped for real, not just hidden.
        assert!(cache.lookup("k", 2).is_none());
    }

    #[test]
    fn odd_version_is_not_cached() {
        let cache: ResultCache<u32> = ResultCache::new(4);
        cache.insert("k".into(), 7, 3);
        assert!(cache.lookup("k", 3).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ResultCache<u32> = ResultCache::new(0);
        cache.insert("k".into(), 7, 0);
        assert!(cache.lookup("k", 0).is_none());
    }

    #[test]
    fn apply_delta_patches_disjoint_entries_and_evicts_overlapping() {
        // Each value is the set of customers its result read.
        let cache: ResultCache<Vec<i64>> = ResultCache::new(8);
        cache.insert("disjoint".into(), vec![0, 1], 2);
        cache.insert("overlap".into(), vec![2, 3], 2);
        cache.insert("other_table".into(), vec![], 2);
        cache.insert("unscoped".into(), vec![0, 1, 2, 3], 2);
        let misses = |touched: &'static [i64]| {
            move |read: &Vec<i64>| !read.iter().any(|c| touched.contains(c))
        };

        // Append touches only customer 3: the disjoint entry survives.
        let (patched, evicted) = cache.apply_delta(4, misses(&[3]));
        assert_eq!((patched, evicted), (2, 2), "disjoint + other-table patch; rest evict");
        assert_eq!(cache.lookup("disjoint", 4).as_deref(), Some(&vec![0, 1]));
        assert_eq!(cache.lookup("other_table", 4).as_deref(), Some(&vec![]));
        assert!(cache.lookup("overlap", 4).is_none());
        assert!(cache.lookup("unscoped", 4).is_none());
        assert_eq!(cache.stats().patches, 2);

        // A second append hitting customer 1 evicts the patched entry.
        let (patched, evicted) = cache.apply_delta(6, misses(&[1]));
        assert_eq!((patched, evicted), (1, 1));
        assert!(cache.lookup("disjoint", 6).is_none());
        assert_eq!(cache.lookup("other_table", 6).as_deref(), Some(&vec![]));
    }

    #[test]
    fn apply_delta_ignores_entries_at_other_versions() {
        let cache: ResultCache<u32> = ResultCache::new(8);
        cache.insert("old".into(), 1, 2);
        // Delta for the 6→8 transition: the version-2 entry is neither
        // patched nor evicted here — the lookup path handles its staleness.
        let (patched, evicted) = cache.apply_delta(8, |_| false);
        assert_eq!((patched, evicted), (0, 0));
        assert!(cache.lookup("old", 2).is_some());
    }

    #[test]
    fn unknown_restriction_columns_overlap_conservatively() {
        use olap_model::{
            AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId,
            Predicate, PredicateOp, Relation,
        };
        use olap_storage::binding::DimInfo;
        use olap_storage::{Column, CubeBinding, Delta, Table};

        // Cube `LO` over `lineorder` with customers c0–c3 and dates d0–d1.
        let hierarchy = |name: &str, members: usize| {
            let mut b = HierarchyBuilder::new(name, [name.to_string(), format!("{name}_up")]);
            for m in 0..members {
                b.add_member_chain(&[format!("{name}{m}"), "ALL".to_string()]).unwrap();
            }
            b.build().unwrap()
        };
        let schema = CubeSchema::new(
            "LO",
            vec![hierarchy("customer", 4), hierarchy("date", 2)],
            vec![MeasureDef::new("revenue", AggOp::Sum)],
        );
        let keys = ["ckey", "dkey"];
        let mut columns: Vec<Column> = keys.iter().map(|k| Column::i64(*k, vec![0])).collect();
        columns.push(Column::f64("revenue", vec![1.0]));
        let fact = Table::new("lineorder", columns).unwrap();
        let dims = keys
            .iter()
            .map(|k| DimInfo {
                table: k.to_string(),
                pk: k.to_string(),
                level_columns: vec![k.to_string(), "up".into()],
            })
            .collect();
        let fks = keys.iter().map(|k| k.to_string()).collect();
        let binding =
            CubeBinding::new(Arc::new(schema), &fact, fks, vec!["revenue".into()], dims).unwrap();
        let sliced = |hierarchy: usize, members: &[u32]| {
            let op = PredicateOp::In(members.iter().map(|&m| MemberId(m)).collect());
            let g = GroupBySet::all(binding.schema());
            CubeQuery::new("LO", g, vec![Predicate { hierarchy, level: 0, op }], vec![])
        };

        let cache: ResultCache<CubeQuery> = ResultCache::new(4);
        cache.insert("other_customers".into(), sliced(0, &[0, 1]), 2);
        cache.insert("one_date".into(), sliced(1, &[0]), 2);
        // The batch carries customer 3 but no date key: nothing is known
        // about its dates, so the date slice must be assumed to overlap.
        let delta = Delta::describe("lineorder", 1, &[Column::i64("ckey", vec![3])]);
        let selection = delta.selection("LO", &binding);
        let (patched, evicted) =
            cache.apply_delta(4, |q| q.relate(&selection, binding.schema()) == Relation::Disjoint);
        assert_eq!((patched, evicted), (1, 1));
        assert!(cache.lookup("other_customers", 4).is_some());
        assert!(cache.lookup("one_date", 4).is_none());
    }

    #[test]
    fn fingerprint_separates_policies_and_strategies() {
        let base = ExecutionPolicy::default();
        let limited = ExecutionPolicy::new()
            .with_deadline(Duration::from_millis(250))
            .with_max_rows_scanned(1000);
        let a = policy_fingerprint(&base, None);
        let b = policy_fingerprint(&limited, None);
        let c = policy_fingerprint(&base, Some(Strategy::Naive));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, policy_fingerprint(&ExecutionPolicy::default(), None));
        // The cancel token is plumbing, not semantics.
        let with_token =
            ExecutionPolicy::default().with_cancel_token(olap_engine::CancelToken::new());
        assert_eq!(a, policy_fingerprint(&with_token, None));
    }

    #[test]
    fn cache_key_pairs_unambiguously() {
        let base = policy_fingerprint(&ExecutionPolicy::default(), None);
        let limited = policy_fingerprint(&ExecutionPolicy::new().with_max_rows_scanned(5), None);
        assert_ne!(cache_key("with s by x", &base), cache_key("with s by x", &limited));
        // The first `\u{1}` ends the fingerprint, whatever the statement holds.
        for statement in ["with s by x", "with \u{1} s", "\u{1}"] {
            let key = cache_key(statement, &base);
            assert_eq!(key.split_once('\u{1}'), Some((base.as_str(), statement)));
        }
    }
}
