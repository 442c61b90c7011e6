//! The `lineorder` fact table generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use olap_storage::{Column, Table};

/// Domain sizes the fact generator draws foreign keys from.
#[derive(Debug, Clone, Copy)]
pub struct FactDomains {
    pub customers: usize,
    pub suppliers: usize,
    pub parts: usize,
    pub dates: usize,
}

/// Generates `n` lineorder facts.
///
/// Foreign keys are uniform over their dimension domains. Measures follow
/// the SSB distributions: `quantity` ∈ 1..=50, `discount` ∈ 0..=10 (percent),
/// `extendedprice` derived from a per-part base price, `revenue =
/// extendedprice · (100 − discount) / 100`, `supplycost` ≈ 60% of the base
/// price with ±10% noise.
///
/// All measures are **integer-valued**, as in SSB's dbgen (which derives
/// them with integer arithmetic). Besides fidelity, this makes every `Sum`
/// exact in `f64` — integer sums are associative, so sharded scatter-gather
/// and morsel-parallel merges reproduce the sequential result bit for bit.
///
/// Generation is chunked: each chunk reseeds from `(seed, chunk index)` so
/// output is deterministic and, when `parallel` is set, chunks generate on
/// separate threads with identical results.
pub fn gen_lineorder(n: usize, domains: FactDomains, seed: u64, parallel: bool) -> Table {
    const CHUNK: usize = 1 << 19;
    let n_chunks = n.div_ceil(CHUNK.max(1)).max(1);
    let gen_chunk = |chunk: usize| -> FactChunk {
        let lo = chunk * CHUNK;
        let hi = ((chunk + 1) * CHUNK).min(n);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFAC7 ^ ((chunk as u64) << 32));
        let len = hi.saturating_sub(lo);
        let mut out = FactChunk::with_capacity(len);
        for _ in 0..len {
            let ckey = rng.gen_range(0..domains.customers) as i64;
            let skey = rng.gen_range(0..domains.suppliers) as i64;
            let pkey = rng.gen_range(0..domains.parts) as i64;
            let dkey = rng.gen_range(0..domains.dates) as i64;
            let quantity = rng.gen_range(1..=50) as f64;
            let discount = rng.gen_range(0..=10) as f64;
            // Base price is a stable function of the part, like SSB's
            // price-from-name derivation.
            let base_price = 900.0 + (pkey % 2_000) as f64;
            let extendedprice = base_price * quantity;
            let revenue = (extendedprice * (100.0 - discount) / 100.0).round();
            let supplycost = (base_price * 0.6 * (0.9 + 0.2 * rng.gen::<f64>())).round();
            out.push(
                ckey,
                skey,
                pkey,
                dkey,
                quantity,
                discount,
                extendedprice,
                revenue,
                supplycost,
            );
        }
        out
    };

    let chunks: Vec<FactChunk> = if parallel && n_chunks > 1 {
        let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let gen_chunk = &gen_chunk;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut c = t;
                    while c < n_chunks {
                        mine.push((c, gen_chunk(c)));
                        c += threads;
                    }
                    mine
                }));
            }
            let mut all: Vec<(usize, FactChunk)> =
                handles.into_iter().flat_map(|h| h.join().expect("gen thread")).collect();
            all.sort_by_key(|(c, _)| *c);
            all.into_iter().map(|(_, chunk)| chunk).collect()
        })
    } else {
        (0..n_chunks).map(gen_chunk).collect()
    };

    let mut merged = FactChunk::with_capacity(n);
    for c in chunks {
        merged.extend(c);
    }
    merged.cluster_by_date();
    merged.into_table()
}

struct FactChunk {
    ckey: Vec<i64>,
    skey: Vec<i64>,
    pkey: Vec<i64>,
    dkey: Vec<i64>,
    quantity: Vec<f64>,
    discount: Vec<f64>,
    extendedprice: Vec<f64>,
    revenue: Vec<f64>,
    supplycost: Vec<f64>,
}

impl FactChunk {
    fn with_capacity(n: usize) -> Self {
        FactChunk {
            ckey: Vec::with_capacity(n),
            skey: Vec::with_capacity(n),
            pkey: Vec::with_capacity(n),
            dkey: Vec::with_capacity(n),
            quantity: Vec::with_capacity(n),
            discount: Vec::with_capacity(n),
            extendedprice: Vec::with_capacity(n),
            revenue: Vec::with_capacity(n),
            supplycost: Vec::with_capacity(n),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        ckey: i64,
        skey: i64,
        pkey: i64,
        dkey: i64,
        quantity: f64,
        discount: f64,
        extendedprice: f64,
        revenue: f64,
        supplycost: f64,
    ) {
        self.ckey.push(ckey);
        self.skey.push(skey);
        self.pkey.push(pkey);
        self.dkey.push(dkey);
        self.quantity.push(quantity);
        self.discount.push(discount);
        self.extendedprice.push(extendedprice);
        self.revenue.push(revenue);
        self.supplycost.push(supplycost);
    }

    fn extend(&mut self, other: FactChunk) {
        self.ckey.extend(other.ckey);
        self.skey.extend(other.skey);
        self.pkey.extend(other.pkey);
        self.dkey.extend(other.dkey);
        self.quantity.extend(other.quantity);
        self.discount.extend(other.discount);
        self.extendedprice.extend(other.extendedprice);
        self.revenue.extend(other.revenue);
        self.supplycost.extend(other.supplycost);
    }

    /// Reorders the facts into date-key order (stable, so rows of one day
    /// keep their generation order). Real warehouses load facts as time
    /// goes by, so a date-clustered table is the physically honest layout
    /// — and it is what lets the encoder pick run-length for `dkey`
    /// (one run per day instead of a code per row).
    fn cluster_by_date(&mut self) {
        let mut order: Vec<u32> = (0..self.dkey.len() as u32).collect();
        order.sort_by_key(|&i| self.dkey[i as usize]);
        fn permute<T: Copy>(order: &[u32], v: &mut Vec<T>) {
            *v = order.iter().map(|&i| v[i as usize]).collect();
        }
        permute(&order, &mut self.ckey);
        permute(&order, &mut self.skey);
        permute(&order, &mut self.pkey);
        permute(&order, &mut self.dkey);
        permute(&order, &mut self.quantity);
        permute(&order, &mut self.discount);
        permute(&order, &mut self.extendedprice);
        permute(&order, &mut self.revenue);
        permute(&order, &mut self.supplycost);
    }

    fn into_table(self) -> Table {
        Table::new(
            "lineorder",
            vec![
                Column::i64("ckey", self.ckey),
                Column::i64("skey", self.skey),
                Column::i64("pkey", self.pkey),
                Column::i64("dkey", self.dkey),
                Column::f64("quantity", self.quantity),
                Column::f64("discount", self.discount),
                Column::f64("extendedprice", self.extendedprice),
                Column::f64("revenue", self.revenue),
                Column::f64("supplycost", self.supplycost),
            ],
        )
        .expect("fact table is well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAINS: FactDomains =
        FactDomains { customers: 100, suppliers: 10, parts: 50, dates: 365 };

    /// The values of a key column, read whole.
    fn ints(t: &Table, name: &str) -> Vec<i64> {
        t.column(name).unwrap().i64_iter().unwrap().collect()
    }

    #[test]
    fn facts_arrive_in_date_order() {
        let t = gen_lineorder(5_000, DOMAINS, 1, false);
        let d = ints(&t, "dkey");
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "lineorder is clustered by date key");
    }

    #[test]
    fn keys_stay_in_domain_and_measures_in_range() {
        let t = gen_lineorder(5_000, DOMAINS, 1, false);
        assert_eq!(t.n_rows(), 5_000);
        for (col, max) in [("ckey", 100i64), ("skey", 10), ("pkey", 50), ("dkey", 365)] {
            let keys = ints(&t, col);
            assert!(keys.iter().all(|&k| k >= 0 && k < max), "{col} out of domain");
        }
        let q = t.column("quantity").unwrap();
        let q = q.as_f64().unwrap();
        assert!(q.iter().all(|&v| (1.0..=50.0).contains(&v)));
        let d = t.column("discount").unwrap();
        let d = d.as_f64().unwrap();
        assert!(d.iter().all(|&v| (0.0..=10.0).contains(&v)));
    }

    #[test]
    fn revenue_is_discounted_extendedprice() {
        let t = gen_lineorder(1_000, DOMAINS, 2, false);
        let ep = t.column("extendedprice").unwrap();
        let ep = ep.as_f64().unwrap();
        let disc = t.column("discount").unwrap();
        let disc = disc.as_f64().unwrap();
        let rev = t.column("revenue").unwrap();
        let rev = rev.as_f64().unwrap();
        for i in 0..1_000 {
            let expect = (ep[i] * (100.0 - disc[i]) / 100.0).round();
            assert_eq!(rev[i], expect);
            assert_eq!(rev[i].fract(), 0.0, "measures are integer-valued");
        }
    }

    #[test]
    fn parallel_generation_is_identical_to_sequential() {
        let n = 1_200_000; // spans multiple chunks
        let a = gen_lineorder(n, DOMAINS, 3, false);
        let b = gen_lineorder(n, DOMAINS, 3, true);
        assert_eq!(ints(&a, "ckey"), ints(&b, "ckey"));
        assert_eq!(
            a.column("revenue").unwrap().as_f64().unwrap(),
            b.column("revenue").unwrap().as_f64().unwrap()
        );
    }

    #[test]
    fn seeds_change_the_data() {
        let a = gen_lineorder(100, DOMAINS, 1, false);
        let b = gen_lineorder(100, DOMAINS, 2, false);
        assert_ne!(ints(&a, "ckey"), ints(&b, "ckey"));
    }

    #[test]
    fn keys_cover_their_domains_roughly_uniformly() {
        let t = gen_lineorder(50_000, DOMAINS, 4, false);
        let mut counts = [0usize; 10];
        for k in ints(&t, "skey") {
            counts[k as usize] += 1;
        }
        let expect = 50_000.0 / 10.0;
        for c in counts {
            assert!((c as f64) > expect * 0.8 && (c as f64) < expect * 1.2);
        }
    }
}
