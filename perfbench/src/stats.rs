//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `v` by nearest rank; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The quartile of `values` on the program's better side: the lower
/// quartile of a cost, the upper quartile of a rate.
///
/// The box alternates between a fast and a slow phase as neighbouring
/// load comes and goes, and the share of slow time differs from run to
/// run, so a median over a run swings with it. Interference only ever
/// slows the program, and the better-side quartile reads it in its
/// quieter phases, which is what a change to the program moves.
pub fn better_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    quantile(values, if lower_is_better { 0.25 } else { 0.75 })
}

/// Group `(t, v)` samples into windows of `width` seconds by `t`, read
/// the `q`-quantile of `v` in each, and report the lower quartile across
/// windows.
pub fn windowed(samples: &[(f64, f64)], width: f64, q: f64) -> f64 {
    better_quartile(&per_window(samples, width, |v| quantile(v, q)), true)
}

/// Samples per second in each whole window of `width` seconds, upper
/// quartile across windows.
pub fn windowed_rate(samples: &[(f64, f64)], width: f64) -> f64 {
    better_quartile(
        &per_window(samples, width, |v| v.len() as f64 / width),
        false,
    )
}

fn per_window(samples: &[(f64, f64)], width: f64, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut groups: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        groups.entry((t / width) as u64).or_default().push(v);
    }
    groups.values().map(|g| f(g)).collect()
}

/// Per-call cost of `f` in nanoseconds: run it over all `n` items in
/// passes until `budget_s` elapses (at least 3 passes) and take the
/// median pass. Timing whole passes keeps clock reads out of sub-µs
/// numbers.
pub fn per_item_ns(n: usize, budget_s: f64, mut pass: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        pass();
        passes.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
        if passes.len() >= 1000 {
            break;
        }
    }
    median(&passes)
}
