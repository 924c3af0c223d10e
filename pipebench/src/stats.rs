//! Small numeric and process helpers shared by the workloads.

use std::time::Duration;

/// `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64 finalizer: derives the per-op AL seeds from the workload
/// seed.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `s`: a short handle for long fingerprint strings in the
/// printed output.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// Convergence quality of one AL seed, from the per-iteration
/// `(labels_used, f1)` curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Best progressive F1 over the session.
    pub best_f1: f64,
    /// Labels spent when F1 first reached 0.99 × `best_f1`.
    pub labels_to_converge: f64,
}

impl Quality {
    /// Quality of a curve of `(labels_used, f1)` points in iteration order.
    pub fn of_curve(curve: &[(usize, f64)]) -> Quality {
        let best_f1 = curve.iter().map(|&(_, f1)| f1).fold(0.0, f64::max);
        let labels = curve
            .iter()
            .find(|&&(_, f1)| f1 >= 0.99 * best_f1)
            .map_or(0, |&(labels, _)| labels);
        Quality {
            best_f1,
            labels_to_converge: labels as f64,
        }
    }

    /// Parse the curve out of a `RunResult::deterministic_fingerprint`
    /// string (`strategy@dataset::row;row;…`, each row
    /// `iteration|labels_used|f1 bits|…`). This is how the served
    /// sessions' quality is read: the server returns only the
    /// fingerprint.
    pub fn of_fingerprint(fp: &str) -> Result<Quality, String> {
        let (_, rows) = fp
            .split_once("::")
            .ok_or_else(|| format!("fingerprint without rows: {fp:.60}"))?;
        let mut curve = Vec::new();
        for row in rows.split(';').filter(|r| !r.is_empty()) {
            let mut fields = row.split('|');
            let _iteration = fields.next();
            let labels = fields.next().and_then(|s| s.parse::<usize>().ok());
            let f1 = fields
                .next()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .map(f64::from_bits);
            match (labels, f1) {
                (Some(l), Some(f)) => curve.push((l, f)),
                _ => return Err(format!("unparsable fingerprint row '{row}'")),
            }
        }
        if curve.is_empty() {
            return Err("fingerprint has no iterations".into());
        }
        Ok(Quality::of_curve(&curve))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quality_reads_the_fingerprint_curve() {
        let row = |i: usize, labels: usize, f1: f64| {
            format!("{i}|{labels}|{:016x}|0|0|None|None|None|None", f1.to_bits())
        };
        let fp = format!(
            "Trees(20)@synth:10::{};{};{}",
            row(0, 12, 0.5),
            row(1, 20, 0.995),
            row(2, 28, 1.0)
        );
        let q = Quality::of_fingerprint(&fp).unwrap();
        assert_eq!(q.best_f1, 1.0);
        assert_eq!(q.labels_to_converge, 20.0);
        assert!(Quality::of_fingerprint("x@y::").is_err());
    }
}
