//! Order statistics, the process's memory high-water mark and the result
//! line.

/// Nearest-rank median of `samples` (sorts in place). 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// The highest percentile of `samples` that still has `beyond` samples
/// above it: the sample at nearest rank `n - beyond`. Returns the sample,
/// the percentile it sits at, and `n`. With `beyond` or fewer samples the
/// maximum is returned at percentile 100.
pub fn tail(samples: &mut [f64], beyond: usize) -> (f64, f64, usize) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    samples.sort_by(f64::total_cmp);
    if n <= beyond {
        return (samples[n - 1], 100.0, n);
    }
    let rank = n - beyond;
    (samples[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit `f64` carries; a non-finite value prints
/// as 0 so the line stays JSON.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_the_requested_samples_beyond_it() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut xs, 10), (90.0, 90.0, 100));
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(tail(&mut few, 10), (3.0, 100.0, 3));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
