//! Seeded workload inputs: rows, CSV files, and request lines.
//!
//! Everything the program under test receives is generated here from the
//! workload seed, so one seed always gives byte-identical inputs.

use std::io::Write;
use std::path::Path;

/// Columns per row. The α-net at d = 12, α = 0.25 has 598 members.
pub const D: u32 = 12;
/// Every nonempty column subset of a d = 12 row.
pub const MASKS: u64 = (1 << D) - 1;

/// SplitMix64: small, seedable, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Rows over {0,1}^12, packed with column j in bit j. Full rows follow a
/// Zipf(1.0) law over a seeded permutation of all 4096 values, so some
/// patterns repeat heavily and the long tail still shows up.
pub fn zipf_rows(rng: &mut Rng, n: usize) -> Vec<u64> {
    let values = 1usize << D;
    let mut perm: Vec<u64> = (0..values as u64).collect();
    for i in (1..values).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cdf = Vec::with_capacity(values);
    let mut acc = 0.0;
    for rank in 0..values {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            perm[cdf.partition_point(|&c| c < u).min(values - 1)]
        })
        .collect()
}

fn bit(row: u64, j: u32) -> char {
    if row >> j & 1 == 1 {
        '1'
    } else {
        '0'
    }
}

/// Write `rows` as a headered CSV (`c0..c11`); returns the file's size.
pub fn write_csv(path: &Path, rows: &[u64]) -> std::io::Result<u64> {
    let mut out = String::with_capacity(rows.len() * 2 * D as usize + 64);
    let header: Vec<String> = (0..D).map(|j| format!("c{j}")).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for &row in rows {
        for j in 0..D {
            if j > 0 {
                out.push(',');
            }
            out.push(bit(row, j));
        }
        out.push('\n');
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.sync_all()?;
    Ok(out.len() as u64)
}

/// One `ingest` request carrying `rows` as dense symbol arrays.
pub fn ingest_line(rows: &[u64]) -> String {
    let mut s = String::from(r#"{"op":"ingest","rows":["#);
    for (i, &row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for j in 0..D {
            if j > 0 {
                s.push(',');
            }
            s.push(bit(row, j));
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

fn cols_of(mask: u64) -> Vec<u32> {
    (0..D).filter(|j| mask >> j & 1 == 1).collect()
}

fn list<T: std::fmt::Display>(v: &[T]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// The four statistic ops of the mixes, in a fixed order.
pub const OPS: [&str; 4] = ["f0", "frequency", "heavy_hitters", "l1_sample"];

/// One statistic request of kind `OPS[op]` over the columns in `mask`.
fn stat_line(rng: &mut Rng, op: usize, mask: u64, phi: f64) -> String {
    let cols = list(&cols_of(mask));
    match OPS[op] {
        "f0" => format!(r#"{{"op":"f0","cols":{cols}}}"#),
        "frequency" => {
            let pattern: Vec<u64> = (0..mask.count_ones()).map(|_| rng.below(2)).collect();
            format!(
                r#"{{"op":"frequency","cols":{cols},"pattern":{}}}"#,
                list(&pattern)
            )
        }
        "heavy_hitters" => format!(r#"{{"op":"heavy_hitters","cols":{cols},"phi":{phi}}}"#),
        _ => format!(r#"{{"op":"l1_sample","cols":{cols},"k":4,"seed":7}}"#),
    }
}

/// The fixed hot set: 16 `f0`/`frequency`/`heavy_hitters` requests over
/// narrow masks, so every reply after warm-up is a cache hit.
pub fn hot_queries(rng: &mut Rng) -> Vec<String> {
    (0..16)
        .map(|i| {
            let mut mask: u64 = 0;
            while mask.count_ones() < 2 || mask.count_ones() > 5 {
                mask = 1 + rng.below(MASKS);
            }
            stat_line(rng, i % 3, mask, 0.1)
        })
        .collect()
}

/// Shares (in 20ths) of `OPS` in the exploration stream. The two sample
/// scans are several times slower than the other two; keeping them under
/// half the mix keeps the median inside one cluster of latencies.
const EXPLORE_MIX: [u64; 4] = [7, 7, 3, 3];

/// The exploration stream: uniformly random masks from all 4095 nonempty
/// subsets over the four statistics in `EXPLORE_MIX` shares.
pub fn explore_queries(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let mask = 1 + rng.below(MASKS);
            let mut pick = rng.below(EXPLORE_MIX.iter().sum());
            let op = EXPLORE_MIX
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("pick below the total");
            stat_line(rng, op, mask, 0.05)
        })
        .collect()
}

/// Mean over net members of the share of distinct projected patterns in
/// a batch of `batch` rows — what a per-batch "seen" filter could skip.
pub fn distinct_share(rows: &[u64], members: &[u64], batch: usize) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    let mut seen = vec![0u32; 1 << D];
    let mut stamp = 0u32;
    for chunk in rows.chunks(batch).filter(|c| c.len() == batch).take(8) {
        for &mask in members {
            stamp += 1;
            let mut distinct = 0usize;
            for &row in chunk {
                let key = (row & mask) as usize;
                if seen[key] != stamp {
                    seen[key] = stamp;
                    distinct += 1;
                }
            }
            total += distinct as f64 / batch as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Distinct masks in a request stream (the working set the answer cache
/// must hold).
pub fn mask_working_set(lines: &[String]) -> usize {
    let mut masks: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.split("\"cols\":").nth(1))
        .filter_map(|rest| rest.split(']').next())
        .collect();
    masks.sort_unstable();
    masks.dedup();
    masks.len()
}
